#include "core/lakehouse_source.h"

namespace bauplan::core {

MetadataByKey LoadPinnedMetadata(const table::TableOps& ops,
                                 const catalog::PinnedTables& pinned,
                                 const std::set<std::string>& names) {
  std::vector<std::string> keys;
  for (const auto& name : names) {
    auto key = pinned.GetTable(name);
    if (key.ok()) keys.push_back(std::move(*key));
  }
  std::vector<Result<table::TableMetadata>> loaded =
      ops.LoadMetadataMany(keys);
  MetadataByKey out;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (loaded[i].ok()) out.emplace(keys[i], std::move(*loaded[i]));
  }
  return out;
}

Result<const table::TableMetadata*> LakehouseSource::Metadata(
    const std::string& table_name) const {
  if (!pinned_.has_value()) pinned_ = catalog_->Pin(ref_);
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                           pinned_->GetTable(table_name));
  if (preloaded_ != nullptr) {
    auto hit = preloaded_->find(metadata_key);
    if (hit != preloaded_->end()) return &hit->second;
  }
  auto it = metadata_.find(metadata_key);
  if (it == metadata_.end()) {
    BAUPLAN_ASSIGN_OR_RETURN(table::TableMetadata metadata,
                             ops_->LoadMetadata(metadata_key));
    it = metadata_.emplace(std::move(metadata_key), std::move(metadata))
             .first;
  }
  return &it->second;
}

Result<columnar::Schema> LakehouseSource::GetTableSchema(
    const std::string& table_name) const {
  auto overlay_it = overlay_.find(table_name);
  if (overlay_it != overlay_.end()) return overlay_it->second.schema();
  BAUPLAN_ASSIGN_OR_RETURN(const table::TableMetadata* metadata,
                           Metadata(table_name));
  return metadata->schema;
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
  BAUPLAN_ASSIGN_OR_RETURN(const table::TableMetadata* metadata,
                           Metadata(name));
  table::ScanOptions options;
  options.columns = columns;
  options.predicates = predicates;
  BAUPLAN_ASSIGN_OR_RETURN(table::ScanPlan plan,
                           ops_->PlanScan(*metadata, options));
  BAUPLAN_ASSIGN_OR_RETURN(columnar::Table result,
                           ops_->ReadScan(*metadata, plan, options));
  last_plan_ = plan;
  total_files_pruned_ +=
      plan.files_pruned_by_partition + plan.files_pruned_by_stats;
  total_files_read_ += static_cast<int64_t>(plan.files.size());
  return result;
}

}  // namespace bauplan::core
