// bench_e2e — the end-to-end serving benchmark (README.md in this directory).
//
//   bench_e2e --workload W --seed N --seconds S [--trace 0|1] [--scale X]
//             [--out DIR]
//
// Sets the workload up several times (setup_s is the median), then drives
// serve::FrontDoor::Serve from the workload's closed-loop clients for S
// seconds and checks every answer. Untraced, it reports the end-to-end
// metrics. Traced, it runs an untraced and a traced phase of S/2 seconds
// each (the difference is the tracing overhead), then the single-threaded
// probe pass, and reports the per-layer metrics; spans go to
// DIR/TRACE_<workload>.json. Every metric is printed as
// `workload metric value unit samples=n`, the full result goes to
// DIR/RESULT_<workload>.json, and the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
// answer was right, 1 when one was wrong, 2 on a usage or set-up error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "probe.hpp"
#include "workloads.hpp"

namespace cisqp::e2e {
namespace {

constexpr std::uint64_t kTraceSalt = 0x7ace5a17ULL;
constexpr std::uint64_t kDigestSalt = 0xd16e57ULL;
/// The warm-up and traced phases draw from disjoint index ranges, so
/// requests that must never repeat (cold_plan, respellings) stay
/// never-repeated.
constexpr std::uint64_t kTracedIndexBase = 1ULL << 40;
constexpr std::uint64_t kWarmupIndexBase = 1ULL << 41;
/// Sampled requests whose spans are kept for the trace file, per client.
constexpr std::size_t kMaxTracedPerClient = 1024;
constexpr std::size_t kProbeRequests = 500;
/// The timed phase is cut into this many equal windows; the end-to-end
/// timings are medians over them, so a burst of host noise that disturbs
/// one window does not move the result.
constexpr std::size_t kWindows = 20;
/// Untraced runs report setup_s, the median of this many set-ups.
constexpr int kSetups = 7;

struct Args {
  std::string workload;
  Config config;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument " + arg;
      return false;
    }
    arg.erase(0, 2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      values[arg] = argv[++i];
    } else {
      *error = "--" + arg + " needs a value";
      return false;
    }
  }
  try {
    for (const auto& [key, value] : values) {
      if (key == "workload") {
        args->workload = value;
      } else if (key == "seed") {
        args->config.seed = std::stoull(value);
      } else if (key == "seconds") {
        args->seconds = std::stod(value);
      } else if (key == "trace") {
        args->trace = value != "0";
      } else if (key == "scale") {
        args->config.scale = std::stod(value);
      } else if (key == "out") {
        args->out = value;
      } else {
        *error = "unknown option --" + key;
        return false;
      }
    }
  } catch (const std::exception&) {
    *error = "malformed option value";
    return false;
  }
  if (!(args->seconds >= 0.01 && args->seconds <= 3600) ||
      !(args->config.scale > 0 && args->config.scale <= 1)) {
    *error = "--seconds must be in [0.01, 3600] and --scale in (0, 1]";
    return false;
  }
  return true;
}

/// One sampled request of a traced phase, enough to draw its span tree.
struct TracedRequest {
  std::uint64_t id = 0;
  std::size_t client = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string status;  ///< "ok" or the typed status
  std::int64_t queue_us = 0, parse_us = 0, plan_us = 0, exec_us = 0;
  struct Op {
    std::string kind;
    std::int64_t us = 0;
    std::uint64_t rows_out = 0;
  };
  std::vector<Op> ops;
  std::vector<obs::TransferStats> hops;
};

/// Everything one client measured in one phase.
struct Tally {
  Histogram latency;
  std::vector<Histogram> windows = std::vector<Histogram>(kWindows);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t answered = 0;
  std::uint64_t bytes = 0;
  std::int64_t check_ns = 0;
  std::string first_failure;
  // Stage fields of every answered request (traced phases only).
  std::uint64_t staged = 0;
  std::uint64_t parse_skipped = 0;
  double self_us = 0;
  double plan_us = 0;
  // QueryProfile aggregates of the sampled requests (traced phases only).
  std::uint64_t profiled = 0;
  std::int64_t exec_us = 0;
  std::int64_t busy_us = 0;
  std::map<std::string, std::int64_t> op_us;
  std::uint64_t rows_out = 0;
  std::uint64_t hops = 0;
  std::uint64_t hop_bytes = 0;
  std::vector<TracedRequest> traced;

  void Merge(Tally&& other) {
    latency.Merge(other.latency);
    for (std::size_t w = 0; w < kWindows; ++w) windows[w].Merge(other.windows[w]);
    attempted += other.attempted;
    if (failed == 0 && other.failed != 0) first_failure = other.first_failure;
    failed += other.failed;
    answered += other.answered;
    bytes += other.bytes;
    check_ns += other.check_ns;
    staged += other.staged;
    parse_skipped += other.parse_skipped;
    self_us += other.self_us;
    plan_us += other.plan_us;
    profiled += other.profiled;
    exec_us += other.exec_us;
    busy_us += other.busy_us;
    for (const auto& [kind, us] : other.op_us) op_us[kind] += us;
    rows_out += other.rows_out;
    hops += other.hops;
    hop_bytes += other.hop_bytes;
    for (TracedRequest& t : other.traced) traced.push_back(std::move(t));
  }
};

struct Phase {
  Tally tally;
  double seconds = 0;  ///< the measured span; windows are seconds/kWindows
  double elapsed_s = 0;
  serve::FrontDoorStats before;
  serve::FrontDoorStats after;
  EditTally edits;

  double Qps() const {
    return elapsed_s > 0 ? static_cast<double>(tally.attempted) / elapsed_s : 0;
  }
};

/// The profile's operator kinds, with semi-joins counted as joins.
std::string OpKind(const std::string& op) {
  return op == "semi_join" ? "join" : op;
}

void RecordTraced(const Workload& workload, std::size_t client,
                  std::uint64_t index, std::int64_t t0, std::int64_t t1,
                  const Result<serve::Response>& got,
                  const obs::QueryProfile& profile, Tally& tally) {
  if (!got.ok()) {
    if (tally.traced.size() < kMaxTracedPerClient) {
      TracedRequest t;
      t.id = index * workload.clients() + client;
      t.client = client;
      t.start_ns = t0;
      t.end_ns = t1;
      t.status = std::string(StatusCodeName(got.status().code()));
      tally.traced.push_back(std::move(t));
    }
    return;
  }
  ++tally.profiled;
  tally.exec_us += got->exec_us;
  for (const obs::OperatorStats& op : profile.operators) {
    if (op.op.empty()) continue;
    tally.op_us[OpKind(op.op)] += op.time_us;
    tally.rows_out += op.rows_out;
    for (const std::int64_t busy : op.worker_busy_us) tally.busy_us += busy;
  }
  tally.hops += profile.transfers.size();
  tally.hop_bytes += profile.TotalBytesShipped();
  if (tally.traced.size() >= kMaxTracedPerClient) return;
  TracedRequest t;
  t.id = index * workload.clients() + client;
  t.client = client;
  t.start_ns = t0;
  t.end_ns = t1;
  t.status = "ok";
  t.queue_us = got->queue_us;
  t.parse_us = got->parse_us;
  t.plan_us = got->plan_us;
  t.exec_us = got->exec_us;
  for (const obs::OperatorStats& op : profile.operators) {
    if (!op.op.empty()) t.ops.push_back({OpKind(op.op), op.time_us, op.rows_out});
  }
  t.hops = profile.transfers;
  tally.traced.push_back(std::move(t));
}

/// One closed-loop client: request, wait, check, repeat until the deadline.
void RunClient(Workload& workload, const Config& config, std::size_t client,
               std::uint64_t first_index, std::int64_t start,
               std::int64_t deadline, bool traced, Tally& tally) {
  serve::FrontDoor& door = workload.door();
  try {
    for (std::uint64_t index = first_index; NowNs() < deadline; ++index) {
      std::uint32_t key = 0;
      serve::Request request;
      request.sql = workload.Next(client, index, &key);
      const bool sampled =
          traced && (workload.TraceEveryRequest() ||
                     RequestHash(config.seed ^ kTraceSalt, client, index) % 64 == 0);
      obs::QueryProfile profile;
      if (sampled) request.profile = &profile;

      const std::uint64_t epoch_before = door.policy_epoch();
      const std::int64_t t0 = NowNs();
      const Result<serve::Response> got = door.Serve(request);
      const std::int64_t t1 = NowNs();
      const std::uint64_t epoch_after = door.policy_epoch();
      tally.latency.Add(t1 - t0);
      const auto window = static_cast<std::size_t>(
          (t1 - start) * static_cast<std::int64_t>(kWindows) / (deadline - start));
      tally.windows[std::min(window, kWindows - 1)].Add(t1 - t0);
      ++tally.attempted;

      const bool digest =
          RequestHash(config.seed ^ kDigestSalt, client, index) %
              workload.DigestEvery() == 0;
      std::string why;
      const bool right = workload.Check(
          Served{client, index, key, epoch_before, epoch_after, &got}, digest,
          &why);
      tally.check_ns += NowNs() - t1;
      if (!right && tally.failed++ == 0) {
        tally.first_failure = "`" + request.sql + "`: " + why;
      }
      if (got.ok()) {
        ++tally.answered;
        tally.bytes += got->network.total_bytes();
        if (traced) {
          ++tally.staged;
          if (got->parse_us == 0) ++tally.parse_skipped;
          tally.plan_us += static_cast<double>(got->plan_us);
          tally.self_us += static_cast<double>(got->total_us - got->queue_us -
                                               got->parse_us - got->plan_us -
                                               got->exec_us);
        }
      }
      if (sampled) RecordTraced(workload, client, index, t0, t1, got, profile, tally);
    }
  } catch (const std::exception& e) {
    if (tally.failed++ == 0) tally.first_failure = e.what();
  }
}

/// Runs every client (and the workload's background editor, if any) for
/// `seconds` seconds.
Phase RunPhase(Workload& workload, const Config& config, double seconds,
               bool traced, std::uint64_t first_index) {
  Phase phase;
  phase.seconds = seconds;
  phase.before = workload.door().Stats();
  std::vector<Tally> tallies(workload.clients());
  std::atomic<bool> stop{false};
  const std::int64_t start = NowNs();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  {
    std::vector<std::thread> threads;
    // Joins every thread on every path, the editor after the clients.
    struct JoinAll {
      std::vector<std::thread>& threads;
      std::atomic<bool>& stop;
      ~JoinAll() {
        for (std::size_t i = threads.size(); i-- > 0;) {
          if (i == 0) stop.store(true);
          if (threads[i].joinable()) threads[i].join();
        }
      }
    } join_all{threads, stop};
    threads.emplace_back([&] { workload.RunBackground(stop, &phase.edits); });
    for (std::size_t c = 0; c < workload.clients(); ++c) {
      threads.emplace_back([&, c] {
        RunClient(workload, config, c, first_index, start, deadline, traced,
                  tallies[c]);
      });
    }
    for (std::size_t i = 1; i < threads.size(); ++i) threads[i].join();
    phase.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  }
  phase.after = workload.door().Stats();
  for (Tally& t : tallies) phase.tally.Merge(std::move(t));
  return phase;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Writes the traced phase's spans as a Chrome trace (chrome://tracing,
/// Perfetto). Child spans are laid end to end from their parent's start in
/// stage order, using the durations Response and QueryProfile report;
/// transfers are instant events. Trace viewers then show each span's self
/// time: its duration minus its children's.
void WriteChromeTrace(const std::string& path, const Phase& phase,
                      std::int64_t origin_ns) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  int next_span = 0;
  const auto event = [&](const char* ph, const std::string& name, double ts_us,
                         double dur_us, const TracedRequest& r, int parent,
                         const std::string& args) {
    const int id = next_span++;
    out << (first ? "\n" : ",\n") << "{\"name\":" << JsonString(name)
        << ",\"ph\":\"" << ph << "\",\"ts\":" << JsonNumber(ts_us);
    if (ph[0] == 'X') out << ",\"dur\":" << JsonNumber(dur_us);
    if (ph[0] == 'i') out << ",\"s\":\"t\"";
    out << ",\"pid\":1,\"tid\":" << r.client << ",\"args\":{\"span\":" << id
        << ",\"parent\":" << parent << ",\"request\":" << r.id << args << "}}";
    first = false;
    return id;
  };
  for (const TracedRequest& r : phase.tally.traced) {
    const double start = static_cast<double>(r.start_ns - origin_ns) / 1e3;
    const int root = event("X", "serve.request", start,
                           static_cast<double>(r.end_ns - r.start_ns) / 1e3, r,
                           -1, ",\"status\":" + JsonString(r.status));
    if (r.status != "ok") continue;
    double at = start;
    const auto stage = [&](const char* name, std::int64_t us) {
      const int id = event("X", name, at, static_cast<double>(us), r, root, "");
      at += static_cast<double>(us);
      return id;
    };
    stage("serve.queue", r.queue_us);
    stage("sql.parse", r.parse_us);
    stage("serve.plan", r.plan_us);
    const double exec_start = at;
    const int exec = stage("exec.execute", r.exec_us);
    double op_at = exec_start;
    for (const TracedRequest::Op& op : r.ops) {
      event("X", "exec.op." + op.kind, op_at, static_cast<double>(op.us), r,
            exec, ",\"rows_out\":" + std::to_string(op.rows_out));
      op_at += static_cast<double>(op.us);
    }
    for (const obs::TransferStats& hop : r.hops) {
      event("i", "exec.hop", exec_start, 0, r, exec,
            ",\"from\":" + JsonString(hop.from) + ",\"to\":" +
                JsonString(hop.to) + ",\"bytes\":" + std::to_string(hop.bytes) +
                ",\"rows\":" + std::to_string(hop.rows));
    }
  }
  out << "\n]}\n";
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The end-to-end metrics of an untraced phase. Throughput and the median
/// latency are medians over the phase's windows; the p99 comes from every
/// sample of the phase, so at least ten samples lie beyond it on every
/// workload.
void EndToEnd(const Phase& p, const std::vector<double>& setup_s,
              std::vector<Metric>* out) {
  const Tally& t = p.tally;
  std::vector<double> qps;
  std::vector<double> p50;
  for (const Histogram& w : t.windows) {
    qps.push_back(static_cast<double>(w.count()) /
                  (p.seconds / static_cast<double>(kWindows)));
    p50.push_back(w.Quantile(0.5) / 1e3);
  }
  out->push_back({"setup_s", Percentile(setup_s, 0.5), "s", setup_s.size()});
  out->push_back({"throughput_qps", Percentile(qps, 0.5), "req/s", t.attempted});
  out->push_back({"latency_p50_us", Percentile(p50, 0.5), "us", t.attempted});
  out->push_back({"latency_p99_us", t.latency.Quantile(0.99) / 1e3, "us",
                  t.attempted});
  out->push_back({"answered_frac",
                  Ratio(static_cast<double>(t.answered),
                        static_cast<double>(t.attempted)),
                  "frac", t.attempted});
  out->push_back({"bytes_per_query",
                  Ratio(static_cast<double>(t.bytes),
                        static_cast<double>(t.answered)),
                  "B", t.answered});
  out->push_back({"peak_rss_mb", PeakRssMiB(), "MiB", 1});
}

/// The per-layer metrics measured on the served requests of the traced
/// phase (the probe pass adds the rest). `pool_threads` is the exec pool's
/// parallelism, the denominator of worker_busy_frac.
void PerLayer(const Phase& untraced, const Phase& traced,
              std::size_t pool_threads, std::vector<Metric>* out) {
  const Tally& t = traced.tally;
  const auto delta = [&](auto field) {
    return static_cast<double>(traced.after.*field - traced.before.*field);
  };
  const double hits = delta(&serve::FrontDoorStats::plan_cache_hits);
  const double misses = delta(&serve::FrontDoorStats::plan_cache_misses);
  const double cv_hits = delta(&serve::FrontDoorStats::canview_hits);
  const double cv_misses = delta(&serve::FrontDoorStats::canview_misses);
  const auto edits = static_cast<double>(traced.edits.edits);
  const auto staged = static_cast<double>(t.staged);
  const auto profiled = static_cast<double>(t.profiled);
  const auto op = [&](const char* kind) {
    const auto it = t.op_us.find(kind);
    return Ratio(it == t.op_us.end() ? 0 : static_cast<double>(it->second),
                 profiled);
  };
  out->push_back({"serve.self_us.mean", Ratio(t.self_us, staged), "us", t.staged});
  out->push_back({"serve.plan_us.mean", Ratio(t.plan_us, staged), "us", t.staged});
  out->push_back({"serve.plan_cache.hit_rate", Ratio(hits, hits + misses),
                  "frac", static_cast<std::uint64_t>(hits + misses)});
  out->push_back({"serve.plan_cache.retained_per_edit",
                  Ratio(delta(&serve::FrontDoorStats::plan_cache_retained), edits),
                  "count", traced.edits.edits});
  out->push_back({"serve.plan_cache.stale_per_edit",
                  Ratio(delta(&serve::FrontDoorStats::plan_cache_stale_evictions),
                        edits),
                  "count", traced.edits.edits});
  out->push_back({"sql.parse.skipped_frac",
                  Ratio(static_cast<double>(t.parse_skipped), staged), "frac",
                  t.staged});
  out->push_back({"authz.canview.memo_hit_rate",
                  Ratio(cv_hits, cv_hits + cv_misses), "frac",
                  static_cast<std::uint64_t>(cv_hits + cv_misses)});
  out->push_back({"exec.op_us.select", op("select"), "us", t.profiled});
  out->push_back({"exec.op_us.project", op("project"), "us", t.profiled});
  out->push_back({"exec.op_us.join", op("join"), "us", t.profiled});
  out->push_back({"exec.rows_out_per_query",
                  Ratio(static_cast<double>(t.rows_out), profiled), "count",
                  t.profiled});
  out->push_back({"exec.hops_per_query",
                  Ratio(static_cast<double>(t.hops), profiled), "count",
                  t.profiled});
  out->push_back({"exec.hop_bytes_per_query",
                  Ratio(static_cast<double>(t.hop_bytes), profiled), "B",
                  t.profiled});
  out->push_back({"exec.worker_busy_frac",
                  Ratio(static_cast<double>(t.busy_us),
                        static_cast<double>(pool_threads) *
                            static_cast<double>(t.exec_us)),
                  "frac", t.profiled});
  out->push_back({"bench.trace_overhead_pct",
                  Ratio(untraced.Qps() - traced.Qps(), untraced.Qps()) * 100,
                  "%", t.attempted});
  out->push_back({"bench.check_us_per_query",
                  Ratio(static_cast<double>(untraced.tally.check_ns) / 1e3,
                        static_cast<double>(untraced.tally.attempted)),
                  "us", untraced.tally.attempted});
}

/// Numbers only policy_churn has; reported beside the declared metrics.
void EditExtras(const Phase& p, std::vector<Metric>* out) {
  if (p.edits.edits == 0) return;
  out->push_back({"edit_p50_us", p.edits.latency.Quantile(0.50) / 1e3, "us",
                  p.edits.edits});
  out->push_back({"edit_p99_us", p.edits.latency.Quantile(0.99) / 1e3, "us",
                  p.edits.edits});
  out->push_back({"bench.edit_lag_us.p99", p.edits.lag.Quantile(0.99) / 1e3,
                  "us", p.edits.edits});
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + JsonString(m.name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.config);
  if (workload == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out);

  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetups); ++rep) {
    const std::int64_t t0 = NowNs();
    workload->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<Metric> declared;
  std::vector<Metric> extra;
  std::uint64_t attempted = 0;
  std::uint64_t failed = workload->setup_wrong();
  std::string first_failure = workload->setup_why();
  const auto account = [&](const Phase& p) {
    attempted += p.tally.attempted;
    if (failed == 0 && p.tally.failed != 0) first_failure = p.tally.first_failure;
    failed += p.tally.failed;
    if (failed == 0 && p.edits.failures != 0) first_failure = p.edits.first_failure;
    failed += p.edits.failures;
  };
  // An untimed warm-up of a tenth of the run: on a 4-vCPU VM the first
  // second of load on a fresh process sometimes ran at a third of the
  // steady rate. Its answers are checked all the same.
  account(RunPhase(*workload, args.config, args.seconds / 10, false,
                   kWarmupIndexBase));
  if (!args.trace) {
    const Phase phase = RunPhase(*workload, args.config, args.seconds, false, 0);
    account(phase);
    EndToEnd(phase, setup_s, &declared);
    EditExtras(phase, &extra);
  } else {
    const Phase untraced =
        RunPhase(*workload, args.config, args.seconds / 2, false, 0);
    const std::int64_t origin = NowNs();
    const Phase traced = RunPhase(*workload, args.config, args.seconds / 2,
                                  true, kTracedIndexBase);
    account(untraced);
    account(traced);
    const ThreadPool* pool = workload->world().exec_pool.get();
    PerLayer(untraced, traced, pool != nullptr ? pool->thread_count() : 1,
             &declared);
    const auto probes = static_cast<std::size_t>(std::max(
        8.0, static_cast<double>(kProbeRequests) * args.config.scale));
    RunProbe(*workload, probes, &declared);
    EndToEnd(untraced, setup_s, &extra);
    EditExtras(traced, &extra);
    WriteChromeTrace(args.out + "/TRACE_" + args.workload + ".json", traced,
                     origin);
  }
  std::size_t rechecked = 0;
  std::string post_why;
  const std::size_t post_wrong = workload->PostCheck(&rechecked, &post_why);
  if (failed == 0 && post_wrong != 0) first_failure = post_why;
  failed += post_wrong;
  const bool correct = failed == 0;

  for (const std::vector<Metric>* list : {&declared, &extra}) {
    for (const Metric& m : *list) {
      std::printf("%-13s %-36s %16.6f %-6s samples=%llu\n", args.workload.c_str(),
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
  }
  std::printf("%-13s attempted=%llu failed=%llu rechecked=%zu correct=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), rechecked,
              correct ? "true" : "false");
  if (!correct) {
    std::fprintf(stderr, "bench_e2e: %s: wrong answer: %s\n",
                 args.workload.c_str(), first_failure.c_str());
  }

  std::ofstream result(args.out + "/RESULT_" + args.workload + ".json");
  result << "{\"workload\": " << JsonString(args.workload)
         << ", \"seed\": " << args.config.seed
         << ", \"seconds\": " << JsonNumber(args.seconds)
         << ", \"scale\": " << JsonNumber(args.config.scale)
         << ", \"trace\": " << (args.trace ? "true" : "false")
         << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"compiler\": " << JsonString(__VERSION__)
         << ", \"build_type\": " << JsonString(CISQP_E2E_BUILD_TYPE) << "}"
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"rechecked\": " << rechecked
         << ", \"first_failure\": " << JsonString(first_failure)
         << ", \"metrics\": " << MetricsJson(declared, true)
         << ", \"extra\": " << MetricsJson(extra, true) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(declared, false).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cisqp::e2e

int main(int argc, char** argv) {
  cisqp::e2e::Args args;
  std::string error;
  if (!cisqp::e2e::ParseArgs(argc, argv, &args, &error) || args.workload.empty()) {
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload "
                 "hot_cached|cold_plan|bulk_exec|policy_churn --seed N "
                 "--seconds S [--trace 0|1] [--scale X] [--out DIR]\n",
                 error.empty() ? "--workload is required" : error.c_str());
    return 2;
  }
  try {
    return cisqp::e2e::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
