// Decorators the traced pass wraps around the platform's public seams.
// Nothing here reaches inside the program: the storage probe sits under
// the store handed to Bauplan::Open, and the timed source sits between
// sql::RunQuery and a core::LakehouseSource the benchmark builds itself.
#ifndef LAKEBENCH_PROBES_H_
#define LAKEBENCH_PROBES_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/lakehouse_source.h"
#include "sql/engine.h"
#include "storage/latency_model.h"
#include "storage/object_store.h"

namespace lakebench {

/// What a lake object is, read off its key prefix.
enum class KeyClass : int {
  kCatalogRef = 0,   // catalog/refs/...
  kCatalogCommit,    // catalog/commits/...
  kTableMetadata,    // lake/<table>/metadata/*.meta
  kManifest,         // lake/<table>/metadata/manifest-*
  kDataFile,         // lake/<table>/data/...
  kCache,            // cache/...
  kAudit,            // audit/...
  kRunRegistry,      // runs/...
  kOther,
  kCount,
};

const char* KeyClassName(KeyClass c);
KeyClass ClassifyKey(const std::string& key);

/// Calls, bytes, measured wall time and modeled (LatencyModel) time of
/// one class of objects.
struct StorageCounts {
  int64_t gets = 0, puts = 0, heads = 0, lists = 0, deletes = 0;
  int64_t bytes_read = 0, bytes_written = 0;
  int64_t wall_ns = 0;
  int64_t sim_us = 0;

  int64_t requests() const { return gets + puts + heads + lists + deletes; }
  StorageCounts& operator+=(const StorageCounts& o);
  StorageCounts operator-(const StorageCounts& o) const;
};

struct StorageTotals {
  std::array<StorageCounts, static_cast<size_t>(KeyClass::kCount)> by_class;

  const StorageCounts& operator[](KeyClass c) const {
    return by_class[static_cast<size_t>(c)];
  }
  StorageCounts Sum() const;
  StorageTotals operator-(const StorageTotals& o) const;
};

/// Counts, sizes and times every call into the wrapped store, attributed
/// by key prefix. Thread-safe (naive wavefront bodies call it
/// concurrently); totals() is meaningful when quiescent.
class ProbeStore : public bauplan::storage::ObjectStore {
 public:
  /// Does not own `base`. `latency` must be the model the platform's
  /// metered store charges, so modeled time here sums to the platform's.
  ProbeStore(bauplan::storage::ObjectStore* base,
             bauplan::storage::LatencyModel latency)
      : base_(base), latency_(latency) {}

  bauplan::Status Put(const std::string& key, bauplan::Bytes data) override;
  bauplan::Result<bauplan::Bytes> Get(const std::string& key) const override;
  bauplan::Result<uint64_t> Head(const std::string& key) const override;
  bauplan::Status Delete(const std::string& key) override;
  bauplan::Result<std::vector<bauplan::storage::ObjectMeta>> List(
      const std::string& prefix) const override;

  StorageTotals totals() const;

 private:
  struct Counters {
    std::atomic<int64_t> calls[5] = {};  // indexed by StoreOp
    std::atomic<int64_t> bytes_read{0}, bytes_written{0}, wall_ns{0},
        sim_us{0};
  };
  void Record(const std::string& key, bauplan::storage::StoreOp op,
              uint64_t nbytes,
              std::chrono::steady_clock::time_point start) const;

  bauplan::storage::ObjectStore* base_;
  bauplan::storage::LatencyModel latency_;
  mutable std::array<Counters, static_cast<size_t>(KeyClass::kCount)>
      counters_;
};

/// Times the two calls sql::RunQuery makes into its catalog-backed source
/// and keeps the scan planner's pruning decisions.
class TimedSource : public bauplan::sql::SchemaResolver,
                    public bauplan::sql::TableSource {
 public:
  explicit TimedSource(bauplan::core::LakehouseSource* inner)
      : inner_(inner) {}

  bauplan::Result<bauplan::columnar::Schema> GetTableSchema(
      const std::string& table_name) const override;
  bauplan::Result<bauplan::columnar::Table> ScanTable(
      const std::string& name, const std::vector<std::string>& columns,
      const std::vector<bauplan::format::ColumnPredicate>& predicates)
      override;

  int64_t scan_ns = 0;
  int64_t scans = 0;
  int64_t files_total = 0;
  int64_t files_pruned = 0;

 private:
  bauplan::core::LakehouseSource* inner_;
};

inline int64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace lakebench

#endif  // LAKEBENCH_PROBES_H_
