#ifndef BAUPLAN_CACHE_ARTIFACT_CACHE_H_
#define BAUPLAN_CACHE_ARTIFACT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/table.h"
#include "common/bytes.h"
#include "common/thread_annotations.h"
#include "observability/metrics.h"
#include "pipeline/project.h"
#include "storage/object_store.h"
#include "table/metadata.h"
#include "table/table_ops.h"

namespace bauplan::cache {

/// What one cached pipeline node produced. A SQL model's entry names the
/// lake files its post-audit artifact was published under (the cache
/// holds no copy of the data); an expectation's entry is its recorded
/// audit outcome.
struct CachedArtifact {
  pipeline::NodeKind kind = pipeline::NodeKind::kSqlModel;
  int64_t output_rows = 0;
  /// SQL models only: the artifact's schema, and the content-addressed
  /// manifest and data files of the snapshot that published it. The
  /// files decode, in order, to exactly the artifact's rows.
  columnar::Schema schema;
  std::string manifest_key;
  std::vector<table::DataFile> files;
  /// Expectations only.
  bool expectation_passed = true;
  std::string details;

  /// Total size of the named data files.
  uint64_t FileBytes() const;

  Bytes Serialize() const;
  static Result<CachedArtifact> Deserialize(const Bytes& bytes);
};

/// A probe's answer for one key: the entry, and for a SQL model the
/// artifact decoded from the files the entry names.
struct CacheHit {
  CachedArtifact artifact;
  columnar::Table table;
};

/// Content-addressed differential artifact cache: memoizes per-node
/// pipeline outputs under their fingerprint keys (cache/fingerprint.h)
/// so a re-run can skip every unchanged node. Entries are small objects
/// in an ObjectStore under "<prefix>/<key>"; a SQL model's entry names
/// the data files its artifact was published under in the lake, so a
/// hit reads the lake's own files and a run can publish it by reference.
/// Hand it the platform's metered lake store and the cache persists
/// across processes, pays the modeled object-storage latency, and
/// composes with MeteredObjectStore, FaultInjectionStore and the cost
/// model like any other I/O.
///
/// Degradation contract: the cache can make a run faster, never fail it.
/// Every store error — entry get, file get, insert put, eviction delete,
/// index list — degrades to a miss (or a skipped insert) and the run
/// proceeds as if the cache were cold. An entry that is corrupt, or that
/// names a file which is missing (snapshot expiry, out-of-band deletion)
/// or does not decode to what the entry says, is dropped on first touch.
///
/// Capacity: `budget_bytes` bounds the sum of the entries' charges, each
/// the bytes of the files it names plus its own serialized size; 0
/// disables the cache entirely. Inserts evict least-recently-used
/// entries until the newcomer fits; an entry charged more than the whole
/// budget is not stored. Eviction deletes the entry object, never a lake
/// file: the files belong to the table snapshots that published them.
///
/// Counters register as cache.{hits,misses,inserts,evictions} plus the
/// cache.bytes gauge; `skipped_invocations` is counted by the runner.
///
/// Thread safety: all operations are safe to call concurrently (a run
/// probes from its driver thread; its publish wave inserts from several).
class ArtifactCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserts = 0;
    int64_t evictions = 0;
    uint64_t bytes = 0;
    size_t entries = 0;
  };

  /// Does not own `store` or `registry` (private registry when null).
  ArtifactCache(storage::ObjectStore* store, uint64_t budget_bytes,
                observability::MetricsRegistry* registry = nullptr,
                std::string prefix = "cache");

  bool enabled() const { return budget_bytes_ > 0; }
  uint64_t budget_bytes() const { return budget_bytes_; }

  /// Rebuilds the in-memory index from the store so a fresh process sees
  /// entries persisted by earlier ones: one List, then one GetMany of the
  /// entries to learn their charges. Errors degrade to an empty index (or
  /// a skipped entry; a corrupt one is deleted); entries beyond the
  /// budget are evicted immediately (the budget may have shrunk since
  /// they were written).
  void LoadIndex();

  /// Probes every key at once: one GetMany for the entries the index
  /// holds, then one batch (`ops.ReadFileSets`) for the data files the
  /// SQL-model entries name, decoded by the BPF reader. Returns the hits
  /// by key; every other key is a miss. Empty keys are skipped.
  std::map<std::string, CacheHit> Probe(const std::vector<std::string>& keys,
                                        const table::TableOps& ops);

  /// Stores an entry under `key`. Never fails: store errors, an
  /// over-budget charge, or a disabled cache all just skip the insert.
  void Insert(const std::string& key, const CachedArtifact& artifact);

  /// Deletes every cached entry (objects and index); returns how many
  /// were dropped. The only surface where a store error is reported.
  Result<size_t> Clear();

  Stats stats() const;
  uint64_t used_bytes() const;
  size_t entry_count() const;

 private:
  struct Entry {
    std::string key;
    uint64_t bytes = 0;
  };

  std::string ObjectKey(const std::string& key) const;
  void EvictUntilFits(uint64_t incoming) BAUPLAN_REQUIRES(mu_);
  void DropEntry(const std::string& key, bool count_eviction)
      BAUPLAN_REQUIRES(mu_);

  storage::ObjectStore* store_;
  uint64_t budget_bytes_;
  std::string prefix_;
  mutable std::mutex mu_;
  uint64_t used_bytes_ BAUPLAN_GUARDED_BY(mu_) = 0;
  std::list<Entry> lru_ BAUPLAN_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_
      BAUPLAN_GUARDED_BY(mu_);
  std::unique_ptr<observability::MetricsRegistry> owned_registry_;
  observability::Counter* hits_;
  observability::Counter* misses_;
  observability::Counter* inserts_;
  observability::Counter* evictions_;
  observability::Gauge* bytes_;
};

}  // namespace bauplan::cache

#endif  // BAUPLAN_CACHE_ARTIFACT_CACHE_H_
