#ifndef BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_
#define BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "columnar/table.h"
#include "sql/engine.h"
#include "table/table_ops.h"

namespace bauplan::core {

/// Bridges the SQL engine to the lakehouse: table names resolve through
/// the versioned catalog at a pinned ref, and scans run through the
/// Iceberg-style planner, so the engine's pushed-down predicates become
/// partition pruning and zone-map skipping. A layered map of in-memory
/// tables (pipeline intermediates) shadows the catalog, which is how the
/// fused executor keeps artifacts off object storage.
///
/// The ref's table map is read once, on the first catalog lookup; every
/// later schema or scan lookup reads that map. So one source sees one
/// commit even if its branch moves, and a resolution error is returned
/// by every lookup.
class LakehouseSource : public sql::SchemaResolver, public sql::TableSource {
 public:
  /// Does not own `catalog` or `ops`. `ref` is a branch, tag, or commit.
  LakehouseSource(const catalog::Catalog* catalog, const table::TableOps* ops,
                  std::string ref)
      : catalog_(catalog), ops_(ops), ref_(std::move(ref)) {}

  /// Reads an already-pinned table map and never touches the catalog.
  LakehouseSource(const table::TableOps* ops, catalog::PinnedTables pinned)
      : catalog_(nullptr),
        ops_(ops),
        ref_(pinned.ref()),
        pinned_(std::move(pinned)) {}

  /// Registers an in-memory table that shadows catalog contents.
  void AddOverlayTable(const std::string& name, columnar::Table table) {
    overlay_[name] = std::move(table);
  }

  const std::string& ref() const { return ref_; }

  /// Cumulative pruning stats across all scans through this source.
  const table::ScanPlan& last_scan_plan() const { return last_plan_; }
  int64_t total_files_pruned() const { return total_files_pruned_; }
  int64_t total_files_read() const { return total_files_read_; }

  Result<columnar::Schema> GetTableSchema(
      const std::string& table_name) const override;

  Result<columnar::Table> ScanTable(
      const std::string& name, const std::vector<std::string>& columns,
      const std::vector<format::ColumnPredicate>& predicates) override;

 private:
  /// Metadata key of a catalog table, pinning the ref on first use.
  Result<std::string> MetadataKey(const std::string& table_name) const;

  const catalog::Catalog* catalog_;
  const table::TableOps* ops_;
  std::string ref_;
  mutable std::optional<catalog::PinnedTables> pinned_;
  std::map<std::string, columnar::Table> overlay_;
  table::ScanPlan last_plan_;
  int64_t total_files_pruned_ = 0;
  int64_t total_files_read_ = 0;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_
