#include "exec/cluster.hpp"

namespace cisqp::exec {

Cluster::Cluster(const catalog::Catalog& cat) : cat_(cat) {
  tables_.reserve(cat.relation_count());
  for (std::size_t rel = 0; rel < cat.relation_count(); ++rel) {
    tables_.push_back(std::make_shared<storage::ColumnarTable>(
        storage::Table::ForRelation(cat, static_cast<catalog::RelationId>(rel))
            .columns()));
  }
}

Status Cluster::InsertRow(catalog::RelationId rel, const storage::Row& row) {
  if (rel >= cat_.relation_count()) {
    return NotFoundError("unknown relation id " + std::to_string(rel));
  }
  std::shared_ptr<storage::ColumnarTable>& table = tables_[rel];
  CISQP_RETURN_IF_ERROR(storage::CheckRow(table->columns(), row));
  if (table.use_count() > 1) {  // handed out: the holder keeps its rows
    table = std::make_shared<storage::ColumnarTable>(*table);
  }
  table->AppendRow(row);
  return Status::Ok();
}

storage::Table Cluster::TableOf(catalog::RelationId rel) const {
  return storage::Table(ColumnarOf(rel));
}

std::shared_ptr<const storage::ColumnarTable> Cluster::ColumnarOf(
    catalog::RelationId rel) const {
  CISQP_CHECK_MSG(rel < cat_.relation_count(), "unknown relation id " << rel);
  return tables_[rel];
}

}  // namespace cisqp::exec
