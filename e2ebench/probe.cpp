#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "authz/canview_cache.hpp"
#include "authz/chase.hpp"
#include "authz/incremental.hpp"
#include "exec/executor.hpp"
#include "planner/plan_search.hpp"
#include "sql/binder.hpp"
#include "sql/signature.hpp"

namespace cisqp::e2e {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

namespace {

/// Counts and times every CanView decision the planner asks of `base`.
class CountingPolicy final : public authz::Policy {
 public:
  explicit CountingPolicy(const authz::Policy& base) : base_(base) {}

  bool CanView(const authz::Profile& profile,
               catalog::ServerId server) const override {
    const std::int64_t t0 = NowNs();
    const bool allowed = base_.CanView(profile, server);
    ns_ += NowNs() - t0;
    ++probes_;
    return allowed;
  }

  authz::CanViewExplanation ExplainCanView(
      const authz::Profile& profile, catalog::ServerId server) const override {
    const std::int64_t t0 = NowNs();
    authz::CanViewExplanation explanation = base_.ExplainCanView(profile, server);
    ns_ += NowNs() - t0;
    ++probes_;
    return explanation;
  }

  std::uint64_t probes() const { return probes_; }
  std::int64_t ns() const { return ns_; }

 private:
  const authz::Policy& base_;
  mutable std::uint64_t probes_ = 0;
  mutable std::int64_t ns_ = 0;
};

double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The epoch policy exactly as FrontDoor::State builds it.
authz::AuthorizationSet EpochPolicy(const World& world) {
  Result<authz::AuthorizationSet> closed =
      authz::ChaseClosure(world.cat(), world.auths, world.options.chase);
  if (closed.ok()) {
    closed->Canonicalize();
    return std::move(*closed);
  }
  if (closed.status().code() == StatusCode::kResourceExhausted) {
    return world.auths;
  }
  throw std::runtime_error("probe chase: " + closed.status().ToString());
}

}  // namespace

void RunProbe(const Workload& workload, std::size_t requests,
              std::vector<Metric>* out) {
  const World& world = workload.world();
  const catalog::Catalog& cat = world.cat();
  const serve::ServeOptions& options = world.options;
  const auto add = [out](std::string name, double value, std::string unit,
                         std::size_t samples) {
    out->push_back(Metric{std::move(name), value, std::move(unit), samples});
  };

  std::vector<double> chase_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = NowNs();
    (void)EpochPolicy(world);
    chase_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  add("authz.chase_ms", Percentile(chase_ms, 0.5), "ms", chase_ms.size());

  // Edits: revoke and re-grant base rules on a maintained closure.
  std::vector<double> edit_us;
  {
    authz::IncrementalClosure inc =
        [&] {
          Result<authz::IncrementalClosure> built =
              authz::IncrementalClosure::Build(cat, world.auths, options.chase);
          if (!built.ok()) {
            throw std::runtime_error("probe closure: " + built.status().ToString());
          }
          return std::move(*built);
        }();
    const std::vector<authz::Authorization> rules = world.auths.All();
    for (std::size_t i = 0; i < std::min<std::size_t>(rules.size(), 16); ++i) {
      for (const bool grant : {false, true}) {
        const std::int64_t t0 = NowNs();
        const Result<authz::ClosureDelta> delta =
            grant ? inc.AddRule(rules[i]) : inc.RevokeRule(rules[i]);
        edit_us.push_back(Us(NowNs() - t0));
        if (!delta.ok()) {
          throw std::runtime_error("probe edit: " + delta.status().ToString());
        }
      }
    }
  }
  add("authz.edit_us.p50", Percentile(edit_us, 0.5), "us", edit_us.size());

  const authz::AuthorizationSet policy = EpochPolicy(world);
  const authz::CachingPolicy memo(policy, &cat);
  const CountingPolicy counting(memo);
  const planner::FeasiblePlanSearch search(cat, counting, &world.stats);
  planner::PlanSearchOptions popt;
  popt.max_orders = options.max_orders;
  popt.threads = 1;
  popt.planner_options.allow_third_party = options.allow_third_party;
  const exec::DistributedExecutor executor(*world.cluster, memo);
  exec::ExecutionOptions eopt;
  eopt.enforce_releases = options.enforce_releases;
  eopt.pool = options.exec_pool;
  eopt.threads = options.exec_threads;
  eopt.morsel = options.morsel;

  std::vector<double> parse_us, signature_us, enumerate_us, search_us,
      execute_us;
  double orders_tried = 0;
  double orders_feasible = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    std::uint32_t key = 0;
    const std::string sql = workload.Next(workload.clients(), i, &key);
    std::int64_t t0 = NowNs();
    Result<plan::QuerySpec> spec = sql::ParseAndBind(cat, sql);
    parse_us.push_back(Us(NowNs() - t0));
    if (!spec.ok()) {
      throw std::runtime_error("probe parse: " + spec.status().ToString());
    }
    t0 = NowNs();
    const std::string signature = sql::CanonicalQuerySignature(*spec);
    signature_us.push_back(Us(NowNs() - t0));

    t0 = NowNs();
    const Result<std::vector<plan::QuerySpec>> orders =
        search.EnumerateOrders(*spec, popt.max_orders);
    enumerate_us.push_back(Us(NowNs() - t0));
    if (!orders.ok()) {
      throw std::runtime_error("probe enumerate: " + orders.status().ToString());
    }

    t0 = NowNs();
    const Result<planner::PlanSearchResult> found = search.Search(*spec, popt);
    search_us.push_back(Us(NowNs() - t0));
    if (!found.ok()) {
      if (found.status().code() != StatusCode::kInfeasible) {
        throw std::runtime_error("probe search: " + found.status().ToString());
      }
      orders_tried += static_cast<double>(orders->size());
      continue;
    }
    orders_tried += static_cast<double>(found->orders_tried);
    orders_feasible += static_cast<double>(found->orders_feasible);
    t0 = NowNs();
    const Result<exec::ExecutionResult> run =
        executor.Execute(found->plan, found->safe_plan.assignment, eopt);
    execute_us.push_back(Us(NowNs() - t0));
    if (!run.ok()) {
      throw std::runtime_error("probe execute: " + run.status().ToString());
    }
  }
  const std::size_t n = search_us.size();
  add("sql.parse_us.p50", Percentile(parse_us, 0.5), "us", n);
  add("sql.signature_us.p50", Percentile(signature_us, 0.5), "us", n);
  add("authz.canview.probes_per_search",
      Ratio(static_cast<double>(counting.probes()), static_cast<double>(n)),
      "count", n);
  add("authz.canview_us_per_search",
      Ratio(Us(counting.ns()), static_cast<double>(n)), "us", n);
  add("planner.enumerate_us.p50", Percentile(enumerate_us, 0.5), "us", n);
  add("planner.search_us.p50", Percentile(search_us, 0.5), "us", n);
  add("planner.search_us.p99", Percentile(search_us, 0.99), "us", n);
  add("planner.orders_tried_per_search",
      Ratio(orders_tried, static_cast<double>(n)), "count", n);
  add("planner.orders_feasible_frac", Ratio(orders_feasible, orders_tried),
      "frac", n);
  add("exec.execute_us.p50", Percentile(execute_us, 0.5), "us",
      execute_us.size());
  add("exec.execute_us.p99", Percentile(execute_us, 0.99), "us",
      execute_us.size());
}

}  // namespace cisqp::e2e
