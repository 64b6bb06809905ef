#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "exec/executor.hpp"
#include "plan/builder.hpp"
#include "sql/binder.hpp"
#include "workload/medical.hpp"

namespace cisqp::e2e {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t RequestHash(std::uint64_t seed, std::size_t client,
                          std::uint64_t index) {
  return Mix(Mix(Mix(seed) ^ client) ^ index);
}

std::uint64_t TableDigest(const storage::Table& table) {
  std::uint64_t h = Mix(table.column_count());
  for (const storage::Column& column : table.columns()) {
    h = Mix(h ^ column.attribute);
    h = Mix(h ^ static_cast<std::uint64_t>(column.type));
  }
  for (const storage::Row& row : table.rows()) {
    for (const storage::Value& value : row) h = Mix(h ^ value.Hash());
  }
  return h;
}

void Histogram::Add(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  std::size_t index = v;
  if (v >= (1U << kSubBits)) {
    const int exponent =
        std::min(static_cast<int>(std::bit_width(v)) - 1, kMaxExponent);
    const std::uint64_t mantissa =
        std::min<std::uint64_t>(v >> (exponent - kSubBits),
                                (2U << kSubBits) - 1);
    index = (static_cast<std::size_t>(exponent - kSubBits + 1) << kSubBits) +
            mantissa - (1U << kSubBits);
  }
  ++counts_[index];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen < rank) continue;
    if (i < (1U << kSubBits)) return static_cast<double>(i);
    const int exponent = static_cast<int>(i >> kSubBits) + kSubBits - 1;
    const std::uint64_t mantissa = (i & ((1U << kSubBits) - 1)) + (1U << kSubBits);
    const double width = std::ldexp(1.0, exponent - kSubBits);
    return static_cast<double>(mantissa) * width + width / 2;
  }
  return 0;
}

Answer Answer::Of(const Result<serve::Response>& got, bool with_digest) {
  Answer a;
  if (!got.ok()) {
    a.code = got.status().code();
    a.message = got.status().message();
    return a;
  }
  a.rows = got->table.row_count();
  a.bytes = got->network.total_bytes();
  if (with_digest) a.digest = TableDigest(got->table);
  return a;
}

bool Answer::Matches(const Answer& want, bool with_digest) const {
  return code == want.code && message == want.message && rows == want.rows &&
         bytes == want.bytes && (!with_digest || digest == want.digest);
}

std::string Answer::ToString() const {
  if (code != StatusCode::kOk) {
    return std::string(StatusCodeName(code)) + ": " + message;
  }
  return std::to_string(rows) + " rows, " + std::to_string(bytes) +
         " bytes shipped, digest " + std::to_string(digest);
}

std::unique_ptr<serve::FrontDoor> World::MakeDoor(
    const authz::AuthorizationSet& policy,
    const serve::ServeOptions& door_options) const {
  return std::make_unique<serve::FrontDoor>(cat(), policy, *cluster, &stats,
                                            door_options);
}

namespace {

using workload::MedicalScenario;

void Must(const Status& status, std::string_view what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

template <typename T>
T Must(Result<T> result, std::string_view what) {
  Must(result.status(), what);
  return std::move(*result);
}

/// A 53-bit uniform draw in [0, 1) from a hash word.
double Unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The Fig. 1 medical federation under the Fig. 3 policy, populated the way
/// E19 and E20 populate it.
std::unique_ptr<World> MedicalWorld(
    const MedicalScenario::DataConfig& data) {
  auto world = std::make_unique<World>();
  world->fed.catalog = MedicalScenario::BuildCatalog();
  world->auths = MedicalScenario::BuildAuthorizations(world->cat());
  world->cluster = std::make_unique<exec::Cluster>(world->cat());
  Rng rng(2026);
  Must(MedicalScenario::PopulateCluster(*world->cluster, data, rng),
       "populate medical federation");
  world->stats = MedicalScenario::ComputeStats(*world->cluster);
  // The paper's cooperative-server mode: third-party executors widen the
  // assignment space, as in E19.
  world->options.allow_third_party = true;
  return world;
}

Result<serve::Response> ServeSql(serve::FrontDoor& door, const std::string& sql) {
  serve::Request request;
  request.sql = sql;
  return door.Serve(request);
}

/// Single-threaded cold answers of `sqls` on a fresh door over `policy`.
std::vector<Answer> References(const World& world,
                               const authz::AuthorizationSet& policy,
                               const std::vector<std::string>& sqls) {
  serve::ServeOptions options = world.options;
  options.max_concurrent = 1;
  options.planning_threads = 1;
  options.exec_pool = nullptr;
  options.exec_threads = 1;
  const std::unique_ptr<serve::FrontDoor> door = world.MakeDoor(policy, options);
  std::vector<Answer> refs;
  refs.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    refs.push_back(Answer::Of(ServeSql(*door, sql), /*with_digest=*/true));
  }
  return refs;
}

std::vector<std::string> ShapeSqls() {
  std::vector<std::string> sqls;
  for (const MedicalScenario::NamedQuery& q : MedicalScenario::WorkloadQueries()) {
    sqls.push_back(q.sql);
  }
  return sqls;
}

bool CheckAgainst(const Served& served, const Answer& want, bool digest,
                  std::string* why) {
  const Answer got = Answer::Of(*served.got, digest);
  if (got.Matches(want, digest)) return true;
  *why = "got " + got.ToString() + ", want " + want.ToString();
  return false;
}

// --- hot_cached -------------------------------------------------------------

/// 128 warmed signatures under Zipf popularity, with 5 % of requests
/// respelled: the serve and sql layers' bookkeeping dominates and the
/// planner does no work.
class HotCached final : public Workload {
 public:
  explicit HotCached(const Config& config) : config_(config) {
    // Zipf(s = 1) over signature ranks; rank r is signature r.
    double total = 0;
    for (std::size_t r = 0; r < kSignatures; ++r) total += 1.0 / static_cast<double>(r + 1);
    double acc = 0;
    for (std::size_t r = 0; r < kSignatures; ++r) {
      acc += 1.0 / static_cast<double>(r + 1) / total;
      cdf_.push_back(acc);
    }
  }

  std::size_t clients() const override { return kClients; }
  std::uint32_t DigestEvery() const override { return 8; }

  void Setup() override {
    Reset();
    world_ = MedicalWorld({64, 0.4, 0.6, 10});
    sqls_ = Signatures();
    refs_ = References(*world_, world_->auths, sqls_);
    door_ = world_->MakeDoor(world_->auths, world_->options);
    Warm(sqls_, refs_);
  }

  std::string Next(std::size_t client, std::uint64_t index,
                   std::uint32_t* key) const override {
    const std::uint64_t h = RequestHash(config_.seed, client, index);
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end() - 1, Unit(h)) - cdf_.begin());
    *key = static_cast<std::uint32_t>(rank);
    if (Mix(h) % 100 < 5) return Respell(sqls_[rank], index * kClients + client);
    return sqls_[rank];
  }

  bool Check(const Served& served, bool digest, std::string* why) override {
    return CheckAgainst(served, refs_[served.key], digest, why);
  }

 private:
  static constexpr std::size_t kSignatures = 128;
  static constexpr std::size_t kClients = 4;

  /// Signature i is WorkloadQueries shape i % 9 with one extra WHERE
  /// literal, 4 * (i / 9), on an integer attribute the shape reads.
  static std::vector<std::string> Signatures() {
    static const char* const kFilterAttribute[] = {
        "Holder", "Citizen", "Holder", "Patient", "Holder",
        "Patient", "Patient", "Holder", "Citizen"};
    const std::vector<std::string> shapes = ShapeSqls();
    std::vector<std::string> sqls;
    for (std::size_t i = 0; i < kSignatures; ++i) {
      const std::size_t shape = i % shapes.size();
      const bool has_where = shapes[shape].find(" WHERE ") != std::string::npos;
      sqls.push_back(shapes[shape] + (has_where ? " AND " : " WHERE ") +
                     kFilterAttribute[shape] +
                     " >= " + std::to_string(4 * (i / shapes.size())));
    }
    return sqls;
  }

  /// A spelling of `sql` (which starts with "SELECT ") no request has used:
  /// bit 0 of `id` picks the keyword case, the rest is written in base 3
  /// as whitespace after SELECT.
  static std::string Respell(const std::string& sql, std::uint64_t id) {
    std::string out = (id & 1) != 0 ? "select " : "SELECT ";
    for (std::uint64_t n = id >> 1;; n /= 3) {
      out += " \t\n"[n % 3];
      if (n < 3) break;
    }
    out.append(sql, 7);
    return out;
  }

  Config config_;
  std::vector<double> cdf_;
  std::vector<std::string> sqls_;
  std::vector<Answer> refs_;
};

// --- cold_plan --------------------------------------------------------------

/// Never-repeated 3-5 relation queries over a generated federation: the
/// planner and CanView do nearly all the work and the plan cache never hits.
class ColdPlan final : public Workload {
 public:
  explicit ColdPlan(const Config& config)
      : config_(config), reservoirs_(kClients) {}

  std::size_t clients() const override { return kClients; }

  void Setup() override {
    Reset();
    world_ = std::make_unique<World>();
    // The federation and the templates are part of the workload's
    // definition; the seed draws the request stream over them.
    Rng rng(kFederationSeed);
    workload::FederationConfig fed;
    fed.servers = 6;
    fed.relations = 8;
    // Join domains at least as large as the relations keep every join's
    // fan-out below one, so execution stays cheap and planning dominates.
    fed.min_domain = 1000;
    fed.max_domain = 2000;
    world_->fed = workload::GenerateFederation(fed, rng);
    workload::AuthzConfig authz;
    authz.base_grant_prob = 0.3;
    authz.path_grants_per_server = 3;
    authz.max_path_atoms = 2;
    world_->auths = workload::GenerateAuthorizations(world_->cat(), authz, rng);
    world_->cluster = std::make_unique<exec::Cluster>(world_->cat());
    Must(workload::PopulateCluster(*world_->cluster, world_->fed,
                                   workload::DataConfig{200, 1000}, rng),
         "populate generated federation");
    world_->stats = workload::ComputeStats(*world_->cluster);
    // The fuzz harness's chase cap: the default (unlimited) exhausts memory
    // on this federation (README, sizing observation 1).
    world_->options.chase.max_path_atoms = 3;
    world_->options.allow_third_party = true;
    templates_ = Templates(world_->cat());
    door_ = world_->MakeDoor(world_->auths, world_->options);
    // Warm the epoch state (the chase) and the CanView memo: one request
    // per template, from an index range no client uses.
    for (std::size_t t = 0; t < templates_.size(); ++t) {
      const Result<serve::Response> warm = ServeSql(
          *door_, Render(templates_[t], kLiteralBase - 1 - t));
      if (!warm.ok() && warm.status().code() != StatusCode::kInfeasible) {
        Must(warm.status(), "warm cold_plan");
      }
    }
    for (Reservoir& r : reservoirs_) r = Reservoir{};
  }

  std::string Next(std::size_t client, std::uint64_t index,
                   std::uint32_t* key) const override {
    *key = 0;
    const std::uint64_t h = RequestHash(config_.seed, client, index);
    return Render(templates_[h % templates_.size()],
                  kLiteralBase + index * (kClients + 1) + client);
  }

  /// Cold answers cannot be known ahead: the typed verdict must be success
  /// or kInfeasible now, and a seeded reservoir of answers is re-served on
  /// a fresh door after the run (PostCheck).
  bool Check(const Served& served, bool /*digest*/, std::string* why) override {
    const Result<serve::Response>& got = *served.got;
    if (!got.ok() && got.status().code() != StatusCode::kInfeasible) {
      *why = "unexpected status " + got.status().ToString();
      return false;
    }
    Reservoir& r = reservoirs_[served.client];
    const std::size_t capacity = SampleSize() / kClients + 1;
    std::size_t slot = r.seen;
    if (r.seen >= capacity) {
      slot = RequestHash(config_.seed ^ kReservoirSalt, served.client, r.seen) %
             (r.seen + 1);
    }
    ++r.seen;
    if (slot < capacity) {
      Sample sample{served.index, Answer::Of(got, /*with_digest=*/true)};
      if (slot < r.samples.size()) {
        r.samples[slot] = std::move(sample);
      } else {
        r.samples.push_back(std::move(sample));
      }
    }
    return true;
  }

  std::size_t PostCheck(std::size_t* checked, std::string* why) override {
    serve::ServeOptions options = world_->options;
    options.max_concurrent = 1;
    const std::unique_ptr<serve::FrontDoor> fresh =
        world_->MakeDoor(world_->auths, options);
    std::size_t wrong = 0;
    *checked = 0;
    for (std::size_t client = 0; client < kClients; ++client) {
      for (const Sample& sample : reservoirs_[client].samples) {
        ++*checked;
        std::uint32_t key = 0;
        const std::string sql = Next(client, sample.index, &key);
        const Result<serve::Response> got = ServeSql(*fresh, sql);
        const Answer again = Answer::Of(got, true);
        std::string problem;
        if (!again.Matches(sample.answer, true)) {
          problem = "fresh door answered " + again.ToString() +
                    ", the loaded door " + sample.answer.ToString();
        } else if (got.ok()) {
          problem = CentralizedMismatch(sql, got->table);
        }
        if (!problem.empty()) {
          if (wrong++ == 0) *why = "`" + sql + "`: " + problem;
        }
      }
    }
    return wrong;
  }

 private:
  static constexpr std::size_t kClients = 4;
  static constexpr std::size_t kTemplates = 512;
  static constexpr std::uint64_t kFederationSeed = 7;
  static constexpr std::uint64_t kLiteralBase = 1000000000000ULL;
  static constexpr std::uint64_t kReservoirSalt = 0x5eed5a3b1e5ULL;

  /// The query templates: random connected 3-5 relation queries, fixed by
  /// the workload like the federation (per-template cost varies widely, so
  /// a seed-drawn pool would move the metrics with the seed). Real traffic
  /// repeats a bounded set of query shapes with changing literals, so the
  /// CanView memo saturates while the plan cache, keyed by the
  /// literal-bearing signature, never hits.
  static std::vector<plan::QuerySpec> Templates(const catalog::Catalog& cat) {
    Rng rng(Mix(kFederationSeed));
    workload::QueryConfig qc;
    qc.max_select = 4;
    qc.where_prob = 0.5;
    qc.max_where = 2;
    std::vector<plan::QuerySpec> templates;
    while (templates.size() < kTemplates) {
      qc.relations = 3 + rng.UniformIndex(3);
      Result<plan::QuerySpec> spec = workload::GenerateQuery(cat, qc, rng);
      if (spec.ok()) templates.push_back(std::move(*spec));
    }
    return templates;
  }

  /// `spec` plus a tautology on its first relation's key whose literal is
  /// `unique`: the signature, and so the plan-cache key, never repeats.
  std::string Render(plan::QuerySpec spec, std::uint64_t unique) const {
    const catalog::Catalog& cat = world_->cat();
    spec.where.And(algebra::Comparison{
        cat.relation(spec.first_relation).attributes.front(),
        algebra::CompareOp::kLt,
        storage::Value(static_cast<std::int64_t>(unique))});
    return spec.ToString(cat);
  }

  struct Sample {
    std::uint64_t index = 0;
    Answer answer;
  };
  /// One client's uniform sample of its answers (each client only ever
  /// touches its own reservoir).
  struct Reservoir {
    std::uint64_t seen = 0;
    std::vector<Sample> samples;
  };

  std::size_t SampleSize() const {
    return std::max<std::size_t>(8, static_cast<std::size_t>(500 * config_.scale));
  }

  /// "" when `table` holds the row multiset the single-site reference
  /// evaluator computes for `sql`.
  std::string CentralizedMismatch(const std::string& sql,
                                  const storage::Table& table) const {
    const plan::QuerySpec spec =
        Must(sql::ParseAndBind(world_->cat(), sql), "bind sampled query");
    const plan::QueryPlan plan =
        Must(plan::PlanBuilder(world_->cat(), &world_->stats).Build(spec),
             "build reference plan");
    const storage::Table central = Must(
        exec::ExecuteCentralized(*world_->cluster, plan), "centralized run");
    if (storage::Table::SameRowMultiset(table, central)) return "";
    return "served " + std::to_string(table.row_count()) +
           " rows, the centralized reference " +
           std::to_string(central.row_count());
  }

  Config config_;
  std::vector<plan::QuerySpec> templates_;
  std::vector<Reservoir> reservoirs_;
};

// --- bulk_exec --------------------------------------------------------------

/// The feasible medical shapes over 100k citizens on one shared exec pool:
/// exec and the algebra kernels dominate.
class BulkExec final : public Workload {
 public:
  explicit BulkExec(const Config& config) : config_(config) {}

  std::size_t clients() const override { return 1; }
  std::uint32_t DigestEvery() const override { return 16; }
  bool TraceEveryRequest() const override { return true; }

  void Setup() override {
    Reset();
    const auto citizens = static_cast<std::size_t>(
        std::max(64.0, 100000 * config_.scale));
    world_ = MedicalWorld({citizens, 0.3, 0.6, 50});
    world_->exec_pool = std::make_unique<ThreadPool>(4);
    world_->options.exec_pool = world_->exec_pool.get();
    // Sequential single-threaded references: parallel must equal them.
    const std::vector<std::string> shapes = ShapeSqls();
    const std::vector<Answer> all = References(*world_, world_->auths, shapes);
    sqls_.clear();
    refs_.clear();
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (all[i].code != StatusCode::kOk) continue;
      sqls_.push_back(shapes[i]);
      refs_.push_back(all[i]);
    }
    door_ = world_->MakeDoor(world_->auths, world_->options);
    Warm(sqls_, refs_);
  }

  /// Each cycle of n requests serves every shape once, in a seeded order,
  /// so the mix is exact over any whole number of cycles.
  std::string Next(std::size_t client, std::uint64_t index,
                   std::uint32_t* key) const override {
    const std::size_t n = sqls_.size();
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
    std::uint64_t h = RequestHash(config_.seed, client, index / n);
    for (std::size_t i = n; i > 1; --i) {
      h = Mix(h);
      std::swap(order[i - 1], order[h % i]);
    }
    *key = order[index % n];
    return sqls_[*key];
  }

  bool Check(const Served& served, bool digest, std::string* why) override {
    return CheckAgainst(served, refs_[served.key], digest, why);
  }

 private:
  Config config_;
  std::vector<std::string> sqls_;
  std::vector<Answer> refs_;
};

// --- policy_churn -----------------------------------------------------------

/// The nine medical shapes served beside a policy editor: the plan cache and
/// CanView memo run under retention and sweeps.
class PolicyChurn final : public Workload {
 public:
  explicit PolicyChurn(const Config& config) : config_(config) {}

  std::size_t clients() const override { return kClients; }
  std::uint32_t DigestEvery() const override { return 8; }

  void Setup() override {
    Reset();
    world_ = MedicalWorld({64, 0.4, 0.6, 10});
    sqls_ = ShapeSqls();
    rules_ = EditRules(*world_);
    // State 0 is the base policy; state s > 0 adds rules_[s - 1]. Every
    // state's answers come from a fresh door that chases from scratch.
    refs_.assign(1, References(*world_, world_->auths, sqls_));
    for (const authz::Authorization& rule : rules_) {
      authz::AuthorizationSet edited = world_->auths;
      Must(edited.Add(world_->cat(), rule), "edited reference policy");
      refs_.push_back(References(*world_, edited, sqls_));
    }
    door_ = world_->MakeDoor(world_->auths, world_->options);
    Warm(sqls_, refs_[0]);
    edits_done_ = 0;
  }

  std::string Next(std::size_t client, std::uint64_t index,
                   std::uint32_t* key) const override {
    *key = static_cast<std::uint32_t>(
        RequestHash(config_.seed, client, index) % sqls_.size());
    return sqls_[*key];
  }

  /// The answer must be the fresh-door reference of the policy state of the
  /// epoch it was served under (incremental ≡ full rechase). A typed error
  /// carries no epoch, so it must match some state of the epoch window.
  bool Check(const Served& served, bool digest, std::string* why) override {
    const Result<serve::Response>& got = *served.got;
    if (got.ok()) {
      const std::uint64_t epoch = got->policy_epoch;
      if (epoch < served.epoch_before || epoch > served.epoch_after) {
        *why = "served under epoch " + std::to_string(epoch) +
               " outside the window [" + std::to_string(served.epoch_before) +
               ", " + std::to_string(served.epoch_after) + "]";
        return false;
      }
      return CheckAgainst(served, refs_[StateOf(epoch)][served.key], digest,
                          why);
    }
    for (std::uint64_t e = served.epoch_before; e <= served.epoch_after; ++e) {
      if (CheckAgainst(served, refs_[StateOf(e)][served.key], digest, why)) {
        return true;
      }
    }
    return false;
  }

  /// One grant or revoke every 5 ms on a fixed schedule. Edit e grants
  /// rules_[(e / 2) % n] when e is even and revokes it when odd, so epoch E
  /// (= edits applied) maps to a policy state by StateOf.
  void RunBackground(const std::atomic<bool>& stop, EditTally* tally) override {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t n = 0;; ++n) {
      const Clock::time_point due = start + n * kEditPeriod;
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_relaxed)) return;
      const std::uint64_t e = edits_done_;
      const authz::Authorization& rule = rules_[(e / 2) % rules_.size()];
      const std::int64_t t0 = NowNs();
      const Result<authz::ClosureDelta> delta =
          e % 2 == 0 ? door_->AddRule(rule) : door_->RevokeRule(rule);
      const std::int64_t t1 = NowNs();
      tally->latency.Add(t1 - t0);
      tally->lag.Add(t0 - std::chrono::duration_cast<std::chrono::nanoseconds>(
                              due.time_since_epoch())
                              .count());
      ++tally->edits;
      ++edits_done_;
      std::string problem;
      if (!delta.ok()) {
        problem = "edit " + std::to_string(e) + " failed: " +
                  delta.status().ToString();
      } else if (door_->policy_epoch() != edits_done_) {
        problem = "epoch " + std::to_string(door_->policy_epoch()) +
                  " after " + std::to_string(edits_done_) + " edits";
      }
      if (!problem.empty() && tally->failures++ == 0) {
        tally->first_failure = problem;
      }
    }
  }

 private:
  static constexpr std::size_t kClients = 3;
  static constexpr std::chrono::milliseconds kEditPeriod{5};

  /// Disease_list-only grants at S_I, S_H and S_N (disjoint from every
  /// shape but the two that read Disease_list), then S_N:{Holder}, which
  /// overlaps the Insurance shapes.
  static std::vector<authz::Authorization> EditRules(const World& world) {
    const catalog::Catalog& cat = world.cat();
    const auto rule = [&](std::string_view server,
                          std::vector<std::string_view> attrs) {
      authz::Authorization r;
      r.server = Must(cat.FindServer(server), "edit rule server");
      for (const std::string_view a : attrs) {
        r.attributes.Insert(Must(cat.FindAttribute(a), "edit rule attribute"));
      }
      return r;
    };
    std::vector<authz::Authorization> rules;
    for (const std::string_view server : {"S_I", "S_H", "S_N"}) {
      for (const auto& attrs : std::vector<std::vector<std::string_view>>{
               {"Illness"}, {"Treatment"}, {"Illness", "Treatment"}}) {
        authz::Authorization r = rule(server, attrs);
        if (!world.auths.Contains(r)) rules.push_back(std::move(r));
      }
    }
    rules.push_back(rule("S_N", {"Holder"}));
    return rules;
  }

  std::size_t StateOf(std::uint64_t epoch) const {
    return epoch % 2 == 0 ? 0 : 1 + ((epoch - 1) / 2) % rules_.size();
  }

  Config config_;
  std::vector<std::string> sqls_;
  std::vector<authz::Authorization> rules_;
  std::vector<std::vector<Answer>> refs_;  ///< [state][shape]
  std::uint64_t edits_done_ = 0;           ///< editor thread only
};

}  // namespace

void Workload::Warm(const std::vector<std::string>& sqls,
                    const std::vector<Answer>& refs) {
  for (std::size_t i = 0; i < sqls.size(); ++i) {
    const Answer got = Answer::Of(ServeSql(*door_, sqls[i]), true);
    if (!got.Matches(refs[i], true) && setup_wrong_++ == 0) {
      setup_why_ = "warm-up `" + sqls[i] + "`: got " + got.ToString() +
                   ", want " + refs[i].ToString();
    }
  }
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       const Config& config) {
  if (name == "hot_cached") return std::make_unique<HotCached>(config);
  if (name == "cold_plan") return std::make_unique<ColdPlan>(config);
  if (name == "bulk_exec") return std::make_unique<BulkExec>(config);
  if (name == "policy_churn") return std::make_unique<PolicyChurn>(config);
  return nullptr;
}

}  // namespace cisqp::e2e
