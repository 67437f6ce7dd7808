#include "core/lakehouse_source.h"

namespace bauplan::core {

Result<std::string> LakehouseSource::MetadataKey(
    const std::string& table_name) const {
  if (!pinned_.has_value()) pinned_ = catalog_->Pin(ref_);
  return pinned_->GetTable(table_name);
}

Result<columnar::Schema> LakehouseSource::GetTableSchema(
    const std::string& table_name) const {
  auto overlay_it = overlay_.find(table_name);
  if (overlay_it != overlay_.end()) return overlay_it->second.schema();
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                           MetadataKey(table_name));
  BAUPLAN_ASSIGN_OR_RETURN(table::TableMetadata metadata,
                           ops_->LoadMetadata(metadata_key));
  return metadata.schema;
}

Result<columnar::Table> LakehouseSource::ScanTable(
    const std::string& name, const std::vector<std::string>& columns,
    const std::vector<format::ColumnPredicate>& predicates) {
  auto overlay_it = overlay_.find(name);
  if (overlay_it != overlay_.end()) {
    // In-memory artifact: projection only; exact filters re-apply above.
    if (columns.empty()) return overlay_it->second;
    return overlay_it->second.SelectColumns(columns);
  }
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key, MetadataKey(name));
  table::ScanOptions options;
  options.columns = columns;
  options.predicates = predicates;
  table::ScanPlan plan;
  BAUPLAN_ASSIGN_OR_RETURN(columnar::Table result,
                           ops_->ScanTable(metadata_key, options, &plan));
  last_plan_ = plan;
  total_files_pruned_ +=
      plan.files_pruned_by_partition + plan.files_pruned_by_stats;
  total_files_read_ += static_cast<int64_t>(plan.files.size());
  return result;
}

}  // namespace bauplan::core
