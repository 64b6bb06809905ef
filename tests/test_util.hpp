// Shared helpers for the cisqp test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algebra/vectorized.hpp"
#include "catalog/catalog.hpp"
#include "plan/builder.hpp"
#include "sql/binder.hpp"
#include "workload/medical.hpp"

namespace cisqp::testing {

/// gtest-friendly assertion helpers for Status / Result.
#define ASSERT_OK(expr)                                        \
  do {                                                         \
    const auto& cisqp_st_ = (expr);                            \
    ASSERT_TRUE(cisqp_st_.ok()) << cisqp_st_.ToString();       \
  } while (false)

#define EXPECT_OK(expr)                                        \
  do {                                                         \
    const auto& cisqp_st_ = (expr);                            \
    EXPECT_TRUE(cisqp_st_.ok()) << cisqp_st_.ToString();       \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  auto CISQP_CONCAT_(cisqp_res_, __LINE__) = (expr);           \
  ASSERT_TRUE(CISQP_CONCAT_(cisqp_res_, __LINE__).ok())        \
      << CISQP_CONCAT_(cisqp_res_, __LINE__).status();         \
  lhs = std::move(CISQP_CONCAT_(cisqp_res_, __LINE__)).value()

/// Attribute id by (possibly dotted) name; dies on unknown names.
inline catalog::AttributeId Attr(const catalog::Catalog& cat,
                                 std::string_view name) {
  return cat.FindAttribute(name).value();
}

/// Server id by name; dies on unknown names.
inline catalog::ServerId Server(const catalog::Catalog& cat,
                                std::string_view name) {
  return cat.FindServer(name).value();
}

/// Relation id by name; dies on unknown names.
inline catalog::RelationId Relation(const catalog::Catalog& cat,
                                    std::string_view name) {
  return cat.FindRelation(name).value();
}

/// IdSet from attribute names.
inline IdSet Attrs(const catalog::Catalog& cat,
                   const std::vector<std::string>& names) {
  IdSet out;
  for (const std::string& n : names) out.Insert(Attr(cat, n));
  return out;
}

/// JoinPath from attribute-name pairs.
inline authz::JoinPath Path(
    const catalog::Catalog& cat,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<authz::JoinAtom> atoms;
  for (const auto& [a, b] : pairs) {
    atoms.push_back(authz::JoinAtom::Make(Attr(cat, a), Attr(cat, b)));
  }
  return authz::JoinPath::FromAtoms(std::move(atoms));
}

/// Row fixtures through the batch kernels: `AsBatch` wraps a row table as
/// the identity batch of its columnar copy, and `AsRows` views what a kernel
/// returned as a row table, or passes its error on.
inline algebra::ColumnarBatch AsBatch(const storage::Table& table) {
  return algebra::ColumnarBatch::FromTable(
      std::make_shared<const storage::ColumnarTable>(
          storage::ColumnarTable::FromRows(table)));
}

inline Result<storage::Table> AsRows(
    const Result<algebra::ColumnarBatch>& out) {
  if (!out.ok()) return out.status();
  return out->ToTable();
}

/// The paper's scenario, parsed and planned with FROM-clause join order
/// (which yields exactly the Fig. 2 tree).
struct MedicalFixture {
  catalog::Catalog cat = workload::MedicalScenario::BuildCatalog();
  authz::AuthorizationSet auths =
      workload::MedicalScenario::BuildAuthorizations(cat);

  plan::QueryPlan PaperPlan() const {
    auto spec = sql::ParseAndBind(cat, workload::MedicalScenario::kPaperQuery);
    CISQP_CHECK_MSG(spec.ok(), spec.status().ToString());
    auto built = plan::PlanBuilder(cat).Build(*spec);
    CISQP_CHECK_MSG(built.ok(), built.status().ToString());
    return std::move(*built);
  }
};

}  // namespace cisqp::testing
