#include "workload/generator.hpp"

#include <algorithm>
#include <numeric>
#include <string>

namespace cisqp::workload {
namespace {

/// Plain union-find for grouping join-connected attributes.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Int64 attributes of `rel` (only they participate in join edges).
std::vector<catalog::AttributeId> IntAttributes(const catalog::Catalog& cat,
                                                catalog::RelationId rel) {
  std::vector<catalog::AttributeId> out;
  for (catalog::AttributeId a : cat.relation(rel).attributes) {
    if (cat.attribute(a).type == catalog::ValueType::kInt64) out.push_back(a);
  }
  return out;
}

/// Join edges between two specific relations.
std::vector<catalog::JoinEdge> EdgesBetween(const catalog::Catalog& cat,
                                            catalog::RelationId a,
                                            catalog::RelationId b) {
  std::vector<catalog::JoinEdge> out;
  for (const catalog::JoinEdge& e : cat.join_edges()) {
    const catalog::RelationId rl = cat.attribute(e.left).relation;
    const catalog::RelationId rr = cat.attribute(e.right).relation;
    if ((rl == a && rr == b) || (rl == b && rr == a)) out.push_back(e);
  }
  return out;
}

}  // namespace

Federation GenerateFederation(const FederationConfig& config, Rng& rng) {
  CISQP_CHECK(config.servers > 0 && config.relations > 0);
  CISQP_CHECK(config.min_attributes >= 1 &&
              config.min_attributes <= config.max_attributes);
  Federation fed;
  catalog::Catalog& cat = fed.catalog;

  for (std::size_t s = 0; s < config.servers; ++s) {
    CISQP_CHECK(cat.AddServer("S" + std::to_string(s)).ok());
  }

  for (std::size_t r = 0; r < config.relations; ++r) {
    const auto server =
        static_cast<catalog::ServerId>(rng.UniformIndex(config.servers));
    const std::size_t attrs = static_cast<std::size_t>(rng.UniformInt(
        static_cast<std::int64_t>(config.min_attributes),
        static_cast<std::int64_t>(config.max_attributes)));
    std::vector<catalog::AttributeSpec> specs;
    const std::string prefix = "R" + std::to_string(r) + "_A";
    for (std::size_t a = 0; a < attrs; ++a) {
      specs.push_back(catalog::AttributeSpec{prefix + std::to_string(a),
                                             catalog::ValueType::kInt64});
    }
    if (rng.Chance(0.3)) {
      specs.push_back(catalog::AttributeSpec{"R" + std::to_string(r) + "_label",
                                             catalog::ValueType::kString});
    }
    CISQP_CHECK(cat.AddRelation("R" + std::to_string(r), server, specs,
                                {specs.front().name})
                    .ok());
  }

  // Spanning tree over relations, then optional extra edges. Every edge
  // links two int64 attributes of different relations.
  const auto connect = [&](catalog::RelationId a, catalog::RelationId b) {
    const auto ia = IntAttributes(cat, a);
    const auto ib = IntAttributes(cat, b);
    const Status status = cat.AddJoinEdge(ia[rng.UniformIndex(ia.size())],
                                          ib[rng.UniformIndex(ib.size())]);
    CISQP_CHECK_MSG(status.ok() || status.code() == StatusCode::kAlreadyExists,
                    status.ToString());
  };
  for (catalog::RelationId r = 1; r < config.relations; ++r) {
    connect(r, static_cast<catalog::RelationId>(rng.UniformIndex(r)));
  }
  for (catalog::RelationId a = 0; a < config.relations; ++a) {
    for (catalog::RelationId b = a + 1; b < config.relations; ++b) {
      if (rng.Chance(config.extra_edge_prob)) connect(a, b);
    }
  }

  // Shared domains for join-connected attribute groups.
  UnionFind groups(cat.attribute_count());
  for (const catalog::JoinEdge& e : cat.join_edges()) {
    groups.Union(e.left, e.right);
  }
  std::vector<std::int64_t> group_domain(cat.attribute_count(), 0);
  fed.attribute_domain.resize(cat.attribute_count());
  for (catalog::AttributeId a = 0; a < cat.attribute_count(); ++a) {
    const std::size_t root = groups.Find(a);
    if (group_domain[root] == 0) {
      group_domain[root] = rng.UniformInt(config.min_domain, config.max_domain);
    }
    fed.attribute_domain[a] = group_domain[root];
  }
  return fed;
}

Result<plan::QuerySpec> GenerateQuery(const catalog::Catalog& cat,
                                      const QueryConfig& config, Rng& rng) {
  CISQP_CHECK(config.relations >= 1);
  if (config.relations > cat.relation_count()) {
    return InvalidArgumentError("query wants more relations than the schema has");
  }

  // Grow a random connected relation set along the join graph; retry with
  // fresh random starts when a branch dead-ends.
  constexpr int kMaxTries = 32;
  for (int attempt = 0; attempt < kMaxTries; ++attempt) {
    plan::QuerySpec spec;
    spec.first_relation =
        static_cast<catalog::RelationId>(rng.UniformIndex(cat.relation_count()));
    IdSet placed;
    placed.Insert(spec.first_relation);

    bool stuck = false;
    while (placed.size() < config.relations) {
      // Candidates: relations joinable to the placed set.
      std::vector<catalog::RelationId> frontier;
      for (catalog::RelationId r = 0; r < cat.relation_count(); ++r) {
        if (placed.Contains(r)) continue;
        for (IdSet::value_type p : placed) {
          if (!EdgesBetween(cat, r, p).empty()) {
            frontier.push_back(r);
            break;
          }
        }
      }
      if (frontier.empty()) {
        stuck = true;
        break;
      }
      const catalog::RelationId next = frontier[rng.UniformIndex(frontier.size())];
      std::vector<catalog::JoinEdge> incident;
      for (IdSet::value_type p : placed) {
        const auto edges = EdgesBetween(cat, next, p);
        incident.insert(incident.end(), edges.begin(), edges.end());
      }
      plan::JoinStep step;
      step.relation = next;
      rng.Shuffle(incident);
      const IdSet& next_attrs = cat.relation(next).attribute_set;
      for (std::size_t i = 0; i < incident.size(); ++i) {
        if (i > 0 && !rng.Chance(config.extra_atom_prob)) continue;
        const catalog::JoinEdge& e = incident[i];
        const bool right_is_next = next_attrs.Contains(e.right);
        step.atoms.push_back(right_is_next
                                 ? algebra::EquiJoinAtom{e.left, e.right}
                                 : algebra::EquiJoinAtom{e.right, e.left});
      }
      spec.joins.push_back(std::move(step));
      placed.Insert(next);
    }
    if (stuck) continue;

    // Select list: a random non-empty subset of the attributes in scope.
    std::vector<catalog::AttributeId> scope;
    for (catalog::RelationId r : spec.Relations()) {
      const auto& attrs = cat.relation(r).attributes;
      scope.insert(scope.end(), attrs.begin(), attrs.end());
    }
    rng.Shuffle(scope);
    const std::size_t width = 1 + rng.UniformIndex(std::min(config.max_select,
                                                            scope.size()));
    spec.select_list.assign(scope.begin(),
                            scope.begin() + static_cast<std::ptrdiff_t>(width));

    // Optional WHERE conjuncts on int64 attributes in scope.
    if (config.max_where > 0 && rng.Chance(config.where_prob)) {
      std::vector<catalog::AttributeId> int_scope;
      for (catalog::RelationId r : spec.Relations()) {
        const auto ints = IntAttributes(cat, r);
        int_scope.insert(int_scope.end(), ints.begin(), ints.end());
      }
      const std::size_t conjuncts = 1 + rng.UniformIndex(config.max_where);
      for (std::size_t i = 0; i < conjuncts && !int_scope.empty(); ++i) {
        spec.where.And(algebra::Comparison{
            int_scope[rng.UniformIndex(int_scope.size())],
            rng.Chance(0.5) ? algebra::CompareOp::kGe : algebra::CompareOp::kLt,
            storage::Value(rng.UniformInt(0, 100))});
      }
    }

    CISQP_RETURN_IF_ERROR(spec.Validate(cat));
    return spec;
  }
  return InvalidArgumentError(
      "could not grow a connected query of the requested size");
}

authz::AuthorizationSet GenerateAuthorizations(const catalog::Catalog& cat,
                                               const AuthzConfig& config,
                                               Rng& rng) {
  authz::AuthorizationSet auths;
  const auto add_ignoring_duplicates = [&](authz::Authorization auth) {
    const Status status = auths.Add(cat, std::move(auth));
    CISQP_CHECK_MSG(status.ok() || status.code() == StatusCode::kAlreadyExists,
                    status.ToString());
  };

  // Every server sees its own relations (paper §4 assumption).
  if (config.grant_own_relations) {
    for (catalog::RelationId r = 0; r < cat.relation_count(); ++r) {
      add_ignoring_duplicates(authz::Authorization{
          cat.relation(r).attribute_set, {}, cat.relation(r).server});
    }
  }

  const auto random_subset = [&](const IdSet& attrs) {
    IdSet subset;
    for (IdSet::value_type a : attrs) {
      if (rng.Chance(config.attribute_keep_prob)) subset.Insert(a);
    }
    if (subset.empty() && !attrs.empty()) {
      const std::size_t pick = rng.UniformIndex(attrs.size());
      subset.Insert(*(attrs.begin() + static_cast<std::ptrdiff_t>(pick)));
    }
    return subset;
  };

  for (catalog::ServerId s = 0; s < cat.server_count(); ++s) {
    // Foreign base-relation grants (empty join path).
    for (catalog::RelationId r = 0; r < cat.relation_count(); ++r) {
      if (cat.relation(r).server == s) continue;
      if (!rng.Chance(config.base_grant_prob)) continue;
      add_ignoring_duplicates(
          authz::Authorization{random_subset(cat.relation(r).attribute_set), {}, s});
    }

    // Join-path grants: random walks over the relation join graph.
    for (std::size_t g = 0; g < config.path_grants_per_server; ++g) {
      if (cat.join_edges().empty()) break;
      const std::size_t length = 1 + rng.UniformIndex(config.max_path_atoms);
      std::vector<authz::JoinAtom> atoms;
      IdSet covered_relations;
      const catalog::JoinEdge& seed =
          cat.join_edges()[rng.UniformIndex(cat.join_edges().size())];
      atoms.push_back(authz::JoinAtom::Make(seed.left, seed.right));
      covered_relations.Insert(cat.attribute(seed.left).relation);
      covered_relations.Insert(cat.attribute(seed.right).relation);
      while (atoms.size() < length) {
        std::vector<catalog::JoinEdge> extensions;
        for (const catalog::JoinEdge& e : cat.join_edges()) {
          const catalog::RelationId rl = cat.attribute(e.left).relation;
          const catalog::RelationId rr = cat.attribute(e.right).relation;
          const bool touches = covered_relations.Contains(rl) ||
                               covered_relations.Contains(rr);
          const bool inside = covered_relations.Contains(rl) &&
                              covered_relations.Contains(rr);
          if (touches && !inside) extensions.push_back(e);
        }
        if (extensions.empty()) break;
        const catalog::JoinEdge& e = extensions[rng.UniformIndex(extensions.size())];
        atoms.push_back(authz::JoinAtom::Make(e.left, e.right));
        covered_relations.Insert(cat.attribute(e.left).relation);
        covered_relations.Insert(cat.attribute(e.right).relation);
      }
      IdSet pool;
      for (IdSet::value_type r : covered_relations) {
        pool.UnionWith(cat.relation(r).attribute_set);
      }
      add_ignoring_duplicates(authz::Authorization{
          random_subset(pool), authz::JoinPath::FromAtoms(std::move(atoms)), s});
    }
  }
  return auths;
}

authz::OpenPolicySet GenerateDenials(const catalog::Catalog& cat,
                                     const DenialConfig& config, Rng& rng) {
  authz::OpenPolicySet denials;
  const auto add_ignoring_duplicates = [&](authz::Denial denial) {
    const Status status = denials.Add(cat, std::move(denial));
    CISQP_CHECK_MSG(status.ok() || status.code() == StatusCode::kAlreadyExists,
                    status.ToString());
  };
  const auto foreign_attribute = [&](catalog::ServerId s) -> catalog::AttributeId {
    for (int tries = 0; tries < 64; ++tries) {
      const auto a = static_cast<catalog::AttributeId>(
          rng.UniformIndex(cat.attribute_count()));
      if (cat.ServerOf(a) != s) return a;
    }
    return catalog::kInvalidId;
  };

  for (catalog::ServerId s = 0; s < cat.server_count(); ++s) {
    for (std::size_t d = 0; d < config.pair_denials_per_server; ++d) {
      const catalog::AttributeId a = foreign_attribute(s);
      const catalog::AttributeId b = foreign_attribute(s);
      if (a == catalog::kInvalidId || b == catalog::kInvalidId || a == b ||
          cat.attribute(a).relation == cat.attribute(b).relation) {
        continue;
      }
      authz::Denial denial;
      denial.attributes = IdSet{a, b};
      denial.server = s;
      if (rng.Chance(config.pathed_prob) && !cat.join_edges().empty()) {
        const catalog::JoinEdge& e =
            cat.join_edges()[rng.UniformIndex(cat.join_edges().size())];
        denial.path.Insert(authz::JoinAtom::Make(e.left, e.right));
      }
      add_ignoring_duplicates(std::move(denial));
    }
    for (std::size_t d = 0; d < config.attribute_denials_per_server; ++d) {
      const catalog::AttributeId a = foreign_attribute(s);
      if (a == catalog::kInvalidId) continue;
      authz::Denial denial;
      denial.attributes = IdSet{a};
      denial.server = s;
      add_ignoring_duplicates(std::move(denial));
    }
  }
  return denials;
}

Status PopulateCluster(exec::Cluster& cluster, const Federation& federation,
                       const DataConfig& config, Rng& rng) {
  const catalog::Catalog& cat = federation.catalog;
  for (catalog::RelationId r = 0; r < cat.relation_count(); ++r) {
    const std::size_t rows = static_cast<std::size_t>(
        rng.UniformInt(static_cast<std::int64_t>(config.min_rows),
                       static_cast<std::int64_t>(config.max_rows)));
    for (std::size_t i = 0; i < rows; ++i) {
      storage::Row row;
      for (catalog::AttributeId a : cat.relation(r).attributes) {
        const std::int64_t domain = federation.attribute_domain[a];
        if (cat.attribute(a).type == catalog::ValueType::kString) {
          row.emplace_back("v" + std::to_string(rng.UniformInt(0, std::max<std::int64_t>(domain, 2) - 1)));
        } else {
          row.emplace_back(rng.UniformInt(0, std::max<std::int64_t>(domain, 2) - 1));
        }
      }
      CISQP_RETURN_IF_ERROR(cluster.InsertRow(r, row));
    }
  }
  return Status::Ok();
}

plan::StatsCatalog ComputeStats(const exec::Cluster& cluster) {
  plan::StatsCatalog stats;
  const catalog::Catalog& cat = cluster.catalog();
  for (catalog::RelationId rel = 0; rel < cat.relation_count(); ++rel) {
    stats.Set(rel, plan::StatsCatalog::FromTable(*cluster.ColumnarOf(rel)));
  }
  return stats;
}

}  // namespace cisqp::workload
