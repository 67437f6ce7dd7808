// The three Table 1 workloads and the client that drives them through the
// public core::Bauplan facade, timing every call on the wall clock and on
// the platform's SimClock.
#ifndef LAKEBENCH_WORKLOADS_H_
#define LAKEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "core/bauplan.h"
#include "lake.h"
#include "probes.h"
#include "stats.h"
#include "table/table_ops.h"

namespace lakebench {

enum class CallType { kQuery, kRun, kWrite };

/// One facade call on both clocks.
struct Call {
  CallType type;
  double wall_ms;
  double sim_ms;
};

/// What the traced pass adds up across its sessions; main.cc turns it
/// into the per-layer metrics.
struct LayerTally {
  StorageTotals storage;  // platform traffic, ops only
  int64_t ops = 0;
  int64_t op_wall_ns = 0;

  // Query path, replayed through Catalog::Resolve -> LakehouseSource ->
  // sql::RunQuery for every query the platform actually executed.
  int64_t queries = 0;
  int64_t query_cache_hits = 0;
  int64_t replays = 0;
  int64_t resolve_ns = 0;
  int64_t scans = 0;
  int64_t scan_ns = 0;
  int64_t files_total = 0;
  int64_t files_pruned = 0;
  int64_t manifest_reads = 0;
  int64_t data_bytes = 0;
  int64_t engine_ns = 0;
  int64_t replay_storage_ns = 0;
  int64_t query_plan_sim_us = 0;
  int64_t query_execute_sim_us = 0;

  // Pipeline runs.
  int64_t runs = 0;
  int64_t check_ns = 0;
  int64_t fingerprint_ns = 0;
  int64_t preflight_storage_ns = 0;
  uint64_t startup_us = 0, queue_us = 0, transfer_us = 0, body_us = 0;
  int64_t invocations = 0;
  int64_t cold_starts = 0;
  int64_t placed = 0;  // naive node invocations (locality applies)
  int64_t locality_hits = 0;
  int64_t spill_bytes = 0;

  // Deltas of the platform's own metrics registry.
  double cache_hits = 0, cache_misses = 0, cache_inserts = 0,
         cache_skipped = 0;
  double rows_scanned = 0, morsels = 0, morsels_scheduled = 0;
  double peak_bytes = 0;
  int64_t rows_out = 0;  // rows produced by executed queries and nodes
};

/// One session: a private copy of the warm lake, a fresh platform on it,
/// and the timed entry points a workload issues its operations through.
class Client {
 public:
  /// Copies `snapshot` and opens a platform on it whose SimClock starts
  /// at `clock_start`. `tally` non-null = traced: the store is wrapped in
  /// a ProbeStore and queries/runs are replayed through their public
  /// parts into `tally`.
  static bauplan::Result<std::unique_ptr<Client>> Open(
      const bauplan::storage::MemoryObjectStore& snapshot,
      uint64_t clock_start, LayerTally* tally);

  bauplan::Result<bauplan::sql::QueryResult> Query(const std::string& sql,
                                                   const std::string& ref);
  bauplan::Result<bauplan::core::RunReport> Run(
      const bauplan::pipeline::PipelineProject& project,
      const std::string& branch,
      const bauplan::core::PipelineRunOptions& options);
  bauplan::Status Write(const std::string& branch, const std::string& table,
                        const bauplan::columnar::Table& data);

  /// Executes `sql` at `commit` on the row-at-a-time scalar engine —
  /// the reference every fast path must match byte for byte.
  bauplan::Result<bauplan::columnar::Table> Oracle(const std::string& sql,
                                                   const std::string& commit);
  bauplan::Result<std::string> Head(const std::string& branch);

  /// Facade calls of the current op; the session loop drains it per op.
  std::vector<Call> calls;

  bauplan::core::Bauplan& platform() { return *bp_; }
  const bauplan::storage::MemoryObjectStore& lake() const { return *store_; }
  const ProbeStore* probe() const { return probe_.get(); }

 private:
  Client(const bauplan::storage::MemoryObjectStore& snapshot,
         uint64_t clock_start, LayerTally* tally);

  template <typename F>
  auto Timed(CallType type, F&& call);
  void Replay(const std::string& sql, const std::string& ref);
  void ReplayPreflight(const bauplan::pipeline::PipelineProject& project,
                       const std::string& branch,
                       const bauplan::core::PipelineRunOptions& options);
  void TallyRun(const bauplan::core::RunReport& report);

  std::unique_ptr<bauplan::storage::MemoryObjectStore> store_;
  std::unique_ptr<ProbeStore> probe_;         // traced only
  std::unique_ptr<ProbeStore> replay_probe_;  // traced only
  bauplan::SimClock clock_;
  std::unique_ptr<bauplan::core::Bauplan> bp_;
  // The benchmark's own view of the lake (oracle and replays), on a
  // private clock so it never moves the platform's simulated time.
  bauplan::SimClock side_clock_;
  std::unique_ptr<bauplan::catalog::Catalog> side_catalog_;
  std::unique_ptr<bauplan::table::TableOps> side_ops_;
  LayerTally* tally_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates this seed's inputs and builds the warm lake on `bp`
  /// (tables loaded, first run / first cache fill done). Returns the
  /// serialized bytes of user data written.
  virtual bauplan::Result<uint64_t> Setup(bauplan::core::Bauplan& bp) = 0;
  /// User data bytes one session writes on top of the setup.
  virtual uint64_t SessionInputBytes() const { return 0; }
  /// Issues op `i` of the session. False when a call failed or returned
  /// a result that differs from the one the first session recorded.
  virtual bool RunOp(Client& client, int64_t i) = 0;
  /// Checks run once, after the first session, outside the timed loop.
  /// `snapshot` is the warm lake (for cache-off runs on a fresh
  /// platform). Returns the number of failed ops; `why` names them.
  virtual int64_t Verify(Client& client,
                         const bauplan::storage::MemoryObjectStore& snapshot,
                         uint64_t clock_start, std::string* why) = 0;
  /// Workload sizes for the report.
  virtual JsonObject Describe() const = 0;

  int64_t session_ops() const { return sizes_.session_ops; }

  /// Test hook: corrupt one recorded result so Verify must trip.
  bool inject_wrong_result = false;

 protected:
  Workload(uint64_t seed, Sizes sizes) : seed_(seed), sizes_(sizes) {}
  /// Generates the taxi and zones tables from the seed and loads them.
  bauplan::Result<uint64_t> LoadLake(bauplan::core::Bauplan& bp);

  uint64_t seed_;
  Sizes sizes_;
  int64_t taxi_rows_ = 0;  // sizes_.taxi_rows, jittered by the seed
};

/// "analyst_queries", "pipeline_devloop" or "nightly_refresh"; null for
/// an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const Sizes& sizes);

}  // namespace lakebench

#endif  // LAKEBENCH_WORKLOADS_H_
