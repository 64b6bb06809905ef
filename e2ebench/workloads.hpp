// The four serving workloads of bench_e2e and the pieces they share.
//
// Every workload is a closed loop over one serve::FrontDoor: each client
// thread sends its next request only after the previous reply arrived. A
// request is a pure function of (seed, client, index), so a run can be
// replayed, sampled, and re-served for verification without storing the
// request stream. The program under test only ever sees the generated SQL,
// policy, and data.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "authz/authorization.hpp"
#include "catalog/catalog.hpp"
#include "common/thread_pool.hpp"
#include "exec/cluster.hpp"
#include "plan/stats.hpp"
#include "serve/front_door.hpp"
#include "workload/generator.hpp"

namespace cisqp::e2e {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 finalizer: cheap, stateless, well-mixed.
std::uint64_t Mix(std::uint64_t x);

/// The per-request random word of request `index` of `client`.
std::uint64_t RequestHash(std::uint64_t seed, std::size_t client,
                          std::uint64_t index);

/// Order-sensitive digest of a table's header and every cell: equal digests
/// stand in for byte-identical tables.
std::uint64_t TableDigest(const storage::Table& table);

/// Log-linear latency histogram over nanoseconds: exact below 128 ns, then
/// 128 buckets per power of two, so no bucket is wider than 0.8 % of its
/// value. Fixed size, so memory does not grow with the request count.
class Histogram {
 public:
  void Add(std::int64_t ns);
  void Merge(const Histogram& other);
  std::uint64_t count() const noexcept { return count_; }
  /// The q-quantile (0 < q <= 1) in nanoseconds, as the midpoint of the
  /// bucket holding the rank-ceil(q*n) sample; 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kMaxExponent = 42;  // ~73 minutes
  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>((kMaxExponent - kSubBits + 2) << kSubBits);
  std::uint64_t count_ = 0;
};

/// What one request must answer: a typed status, or a table of `rows` rows
/// with table digest `digest` whose execution shipped `bytes` bytes.
struct Answer {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::size_t rows = 0;
  std::uint64_t digest = 0;
  std::size_t bytes = 0;

  /// `with_digest` = false skips hashing the table (digest stays 0).
  static Answer Of(const Result<serve::Response>& got, bool with_digest);
  /// Status, message, row count and bytes always; the digest only when
  /// `with_digest`.
  bool Matches(const Answer& want, bool with_digest) const;
  std::string ToString() const;
};

/// Everything a workload serves against. Never moves once built: the
/// cluster and the front doors hold references into it.
struct World {
  /// The schema (attribute domains are only filled for generated
  /// federations, whose data generator needs them).
  workload::Federation fed;
  authz::AuthorizationSet auths;
  std::unique_ptr<exec::Cluster> cluster;
  plan::StatsCatalog stats;
  serve::ServeOptions options;
  std::unique_ptr<ThreadPool> exec_pool;  ///< bulk_exec's shared exec pool

  const catalog::Catalog& cat() const { return fed.catalog; }

  /// A front door over this world with `auths` as its policy.
  std::unique_ptr<serve::FrontDoor> MakeDoor(
      const authz::AuthorizationSet& auths,
      const serve::ServeOptions& options) const;
};

struct Config {
  std::uint64_t seed = 1;
  /// Scales data sizes and verification sample counts (1 = the benchmark;
  /// the smoke test runs at 0.01).
  double scale = 1.0;
};

/// One served request, as the verifier sees it. The policy epoch is read
/// just before and just after Serve, so the epoch the request ran under
/// lies in [epoch_before, epoch_after].
struct Served {
  std::size_t client = 0;
  std::uint64_t index = 0;
  std::uint32_t key = 0;
  std::uint64_t epoch_before = 0;
  std::uint64_t epoch_after = 0;
  const Result<serve::Response>* got = nullptr;
};

/// The policy editor's tally (policy_churn only).
struct EditTally {
  Histogram latency;  ///< FrontDoor::AddRule / RevokeRule wall time
  Histogram lag;      ///< how late each edit started against its schedule
  std::uint64_t edits = 0;
  std::uint64_t failures = 0;
  std::string first_failure;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop client threads.
  virtual std::size_t clients() const = 0;

  /// Builds the world and the front door, warms the caches, and computes
  /// every reference answer. Each call starts from scratch.
  virtual void Setup() = 0;

  /// Request `index` of `client`'s stream; `*key` receives the reference
  /// slot the answer is checked against. Thread-safe.
  virtual std::string Next(std::size_t client, std::uint64_t index,
                           std::uint32_t* key) const = 0;

  /// True when `served` got the right answer; `digest` asks for the full
  /// table comparison. Thread-safe; on a mismatch `*why` explains it.
  virtual bool Check(const Served& served, bool digest, std::string* why) = 0;

  /// 1 in DigestEvery() requests gets its whole table hashed and compared;
  /// the rest compare status, row count and shipped bytes. Chosen so the
  /// check costs well under 5 % of the median latency.
  virtual std::uint32_t DigestEvery() const { return 1; }
  /// Trace every request rather than a 1-in-64 sample.
  virtual bool TraceEveryRequest() const { return false; }

  /// Work that runs beside the clients until `stop` (the policy editor);
  /// by default none.
  virtual void RunBackground(const std::atomic<bool>& /*stop*/,
                             EditTally* /*tally*/) {}

  /// Verification after the timed phases; returns the number of wrong
  /// answers it found and how many requests it re-checked.
  virtual std::size_t PostCheck(std::size_t* checked, std::string* why) {
    *checked = 0;
    (void)why;
    return 0;
  }

  const World& world() const { return *world_; }
  serve::FrontDoor& door() { return *door_; }

  /// Wrong answers the last Setup's cache warm-up served, and the first.
  std::size_t setup_wrong() const { return setup_wrong_; }
  const std::string& setup_why() const { return setup_why_; }

 protected:
  /// Frees the previous set-up before the next is built, so peak RSS never
  /// holds two worlds.
  void Reset() {
    door_.reset();
    world_.reset();
    setup_wrong_ = 0;
    setup_why_.clear();
  }

  /// Serves every query once on door_ (planning it into the plan cache and
  /// memoizing its spelling), counting answers that differ from `refs`.
  void Warm(const std::vector<std::string>& sqls,
            const std::vector<Answer>& refs);

  std::unique_ptr<World> world_;
  std::unique_ptr<serve::FrontDoor> door_;
  std::size_t setup_wrong_ = 0;
  std::string setup_why_;
};

/// The workload called `name`, or nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       const Config& config);

}  // namespace cisqp::e2e
