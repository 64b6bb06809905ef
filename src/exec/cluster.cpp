#include "exec/cluster.hpp"

namespace cisqp::exec {

Cluster::Cluster(const catalog::Catalog& cat)
    : cat_(cat), columnar_(cat.relation_count()) {
  tables_.reserve(cat.relation_count());
  for (std::size_t rel = 0; rel < cat.relation_count(); ++rel) {
    tables_.push_back(storage::Table::ForRelation(
        cat, static_cast<catalog::RelationId>(rel)));
  }
}

Status Cluster::LoadTable(catalog::RelationId rel, storage::Table table) {
  if (rel >= cat_.relation_count()) {
    return NotFoundError("unknown relation id " + std::to_string(rel));
  }
  if (table.columns() != tables_[rel].columns()) {
    return InvalidArgumentError("table header does not match schema of '" +
                                cat_.relation(rel).name + "'");
  }
  tables_[rel] = std::move(table);
  {
    const std::lock_guard<std::mutex> lock(*columnar_mu_);
    columnar_[rel].reset();
  }
  return Status::Ok();
}

Status Cluster::InsertRow(catalog::RelationId rel, storage::Row row) {
  if (rel >= cat_.relation_count()) {
    return NotFoundError("unknown relation id " + std::to_string(rel));
  }
  CISQP_RETURN_IF_ERROR(tables_[rel].AppendRow(std::move(row)));
  {
    const std::lock_guard<std::mutex> lock(*columnar_mu_);
    columnar_[rel].reset();
  }
  return Status::Ok();
}

const storage::Table& Cluster::TableOf(catalog::RelationId rel) const {
  CISQP_CHECK_MSG(rel < cat_.relation_count(), "unknown relation id " << rel);
  return tables_[rel];
}

std::shared_ptr<const storage::ColumnarTable> Cluster::ColumnarOf(
    catalog::RelationId rel) const {
  const storage::Table& table = TableOf(rel);
  const std::lock_guard<std::mutex> lock(*columnar_mu_);
  if (!columnar_[rel]) {
    columnar_[rel] = std::make_shared<const storage::ColumnarTable>(
        storage::ColumnarTable::FromRows(table));
  }
  return columnar_[rel];
}

}  // namespace cisqp::exec
