#ifndef BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_
#define BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "columnar/table.h"
#include "sql/engine.h"
#include "table/table_ops.h"

namespace bauplan::core {

/// Parsed table metadata by metadata key. Keys are content-addressed, so
/// an entry never goes stale.
using MetadataByKey = std::map<std::string, table::TableMetadata>;

/// Loads the metadata of the pinned tables named in `names` (names the
/// pin lacks are skipped) as one GetMany batch. A failed load is left
/// out, so a later lookup of that table retries and reports the error.
MetadataByKey LoadPinnedMetadata(const table::TableOps& ops,
                                 const catalog::PinnedTables& pinned,
                                 const std::set<std::string>& names);

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
///
/// Each table's metadata is fetched and parsed once per source, then
/// reused by every schema lookup and scan: metadata keys are
/// content-addressed, so a key's metadata never changes. A caller that
/// already loaded some (LoadPinnedMetadata) hands them in and they are
/// never fetched.
class LakehouseSource : public sql::SchemaResolver, public sql::TableSource {
 public:
  /// Does not own `catalog` or `ops`. `ref` is a branch, tag, or commit.
  LakehouseSource(const catalog::Catalog* catalog, const table::TableOps* ops,
                  std::string ref)
      : catalog_(catalog), ops_(ops), ref_(std::move(ref)) {}

  /// Reads an already-pinned table map and never touches the catalog.
  /// `preloaded` (may be null) must outlive the source.
  LakehouseSource(const table::TableOps* ops, catalog::PinnedTables pinned,
                  const MetadataByKey* preloaded = nullptr)
      : catalog_(nullptr),
        ops_(ops),
        ref_(pinned.ref()),
        pinned_(std::move(pinned)),
        preloaded_(preloaded) {}

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
  /// Parsed metadata of a catalog table, pinning the ref on first use
  /// and loading each metadata key once.
  Result<const table::TableMetadata*> Metadata(
      const std::string& table_name) const;

  const catalog::Catalog* catalog_;
  const table::TableOps* ops_;
  std::string ref_;
  mutable std::optional<catalog::PinnedTables> pinned_;
  const MetadataByKey* preloaded_ = nullptr;
  /// Metadata this source loaded itself.
  mutable MetadataByKey metadata_;
  std::map<std::string, columnar::Table> overlay_;
  table::ScanPlan last_plan_;
  int64_t total_files_pruned_ = 0;
  int64_t total_files_read_ = 0;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_
