#ifndef BAUPLAN_CORE_PIPELINE_RUNNER_H_
#define BAUPLAN_CORE_PIPELINE_RUNNER_H_

#include <string>
#include <vector>

#include "cache/artifact_cache.h"
#include "cache/fingerprint.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "core/run_report.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "pipeline/dag.h"
#include "runtime/executor.h"
#include "sql/executor.h"
#include "storage/metered_store.h"
#include "table/table_ops.h"

namespace bauplan::core {

namespace internal {
struct NaiveRunContext;
}  // namespace internal

/// How to execute a DAG.
struct PipelineRunOptions {
  /// Fused (default): the whole DAG runs as one function, intermediates
  /// stay in memory, WHERE filters are pushed into the source scans.
  /// Naive: one serverless function per node, every intermediate spills
  /// through object storage, scans materialize whole tables — the
  /// isomorphic plan-to-execution mapping the paper's first version used
  /// (section 4.4.2).
  bool fused = true;
  /// Naive mode only: with > 1, independent nodes dispatch together as
  /// wavefronts and their bodies run on up to this many threads; the
  /// run's latency reflects the DAG's critical path instead of the sum
  /// of nodes. 1 = the classic sequential walk. Ignored in fused mode
  /// (one function has nothing to parallelize over).
  int parallelism = 1;
  /// Run only these nodes (replay selection); empty = all. Upstream
  /// artifacts of unselected nodes are read from the catalog.
  std::vector<std::string> selected;
  /// Static pre-flight: analyze the project before scheduling and refuse
  /// to run (FailedPrecondition, no container acquired) when the
  /// analyzer reports errors. `bauplan run --no-verify` turns this off.
  bool verify = true;
  /// Fused mode only: build the cross-pipeline lineage graph and trim
  /// each node's materialized output to the columns some downstream
  /// node, expectation, or terminal artifact actually reads (`bauplan
  /// run --trim`). Off by default because trimmed intermediate
  /// artifacts are observably narrower than the node's SELECT list.
  bool trim_unused_columns = false;
  /// Execution knobs for every SQL node body (engine, threads, morsel
  /// size, memory budget) — the same struct queries take, embedded by
  /// value instead of copied field-by-field. Defaults come from
  /// sql::ExecOptions::FromEnv() at the CLI layer; tracer/metrics/spill
  /// wiring inside is overridden per node by the runner.
  sql::ExecOptions exec;
  /// Probe the differential artifact cache before dispatching each node
  /// and memoize fresh post-audit outputs after the run (`bauplan run
  /// --no-cache` turns this off). No effect when the runner has no cache
  /// or the cache's budget is 0.
  bool use_cache = true;
};

/// Executes an extracted DAG on the serverless substrate in fused or
/// naive mode, producing the execution half of a RunReport (run_id and
/// merge outcome stay defaulted — materialization back to the catalog is
/// the caller's job; the Bauplan facade wraps this in
/// transform-audit-write).
class PipelineRunner {
 public:
  /// Does not own its collaborators. `spill_store` is the metered store
  /// naive mode spills intermediates through. With a non-null `tracer`
  /// every run produces a span tree (run -> wave -> node -> {scan, sql,
  /// expectation, spill}) extracted into RunReport::trace. With a
  /// non-null `cache` every run probes it per node (hits skip memory
  /// reservation and container acquisition entirely) and memoizes fresh
  /// post-audit artifacts; `metrics` hosts the runner's own
  /// cache.skipped_invocations counter.
  PipelineRunner(Clock* clock, const catalog::Catalog* catalog,
                 const table::TableOps* ops,
                 runtime::ServerlessExecutor* executor,
                 storage::MeteredObjectStore* spill_store,
                 observability::Tracer* tracer = nullptr,
                 cache::ArtifactCache* cache = nullptr,
                 observability::MetricsRegistry* metrics = nullptr)
      : clock_(clock),
        catalog_(catalog),
        ops_(ops),
        executor_(executor),
        spill_store_(spill_store),
        tracer_(tracer),
        cache_(cache),
        skipped_invocations_(
            metrics == nullptr
                ? nullptr
                : metrics->GetCounter("cache.skipped_invocations")) {}

  /// Runs `dag` reading source tables at `ref`. Expectation failures are
  /// reported in the result (not as an error Status); infrastructure
  /// failures are errors. `ref` is resolved once, before any dispatch:
  /// cache keys, function sizing and node bodies all read that one table
  /// map, so no node body touches the catalog.
  Result<RunReport> Execute(const pipeline::Dag& dag,
                            const std::string& ref,
                            const PipelineRunOptions& options);

 private:
  Result<RunReport> ExecuteFused(const pipeline::Dag& dag,
                                 const catalog::PinnedTables& tables,
                                 const std::vector<std::string>& selected,
                                 const sql::ExecOptions& exec,
                                 bool trim_unused_columns,
                                 const cache::NodeFingerprints* keys,
                                 uint64_t run_span);
  Result<RunReport> ExecuteNaive(const pipeline::Dag& dag,
                                 const catalog::PinnedTables& tables,
                                 const std::vector<std::string>& selected,
                                 const sql::ExecOptions& exec,
                                 const cache::NodeFingerprints* keys,
                                 uint64_t run_span);
  /// Wavefront variant of ExecuteNaive: ready nodes dispatch together
  /// through ServerlessExecutor::InvokeWave. Produces the same artifacts,
  /// expectation outcomes and spill metrics as the sequential walk (the
  /// bodies are identical; only the schedule differs).
  Result<RunReport> ExecuteParallelNaive(
      const pipeline::Dag& dag, const catalog::PinnedTables& tables,
      const std::vector<std::string>& selected,
      const sql::ExecOptions& exec, int parallelism,
      const cache::NodeFingerprints* keys, uint64_t run_span);

  /// Probes the cache for `name` (`keys` may be null = caching off) and,
  /// on a hit, completes the node without dispatching a function: fills
  /// `node_report` (cache_hit, rows, audit outcome), feeds the run's
  /// artifact map, and — when a selected downstream consumer will read
  /// the output through the spill store — re-materializes the cached
  /// table under the node's spill key so downstream bodies are untouched.
  /// Returns false on a miss, an empty key, or a failed materialize (the
  /// caller then executes the node normally; cache trouble never fails a
  /// run). `node_span` parents the cache.probe / cache.materialize spans.
  bool TryServeFromCache(internal::NaiveRunContext& ctx,
                         const cache::NodeFingerprints* keys,
                         const std::string& name,
                         bool has_selected_consumer,
                         NodeExecution* node_report, uint64_t node_span);

  /// Memoizes every freshly-executed node of a finished run whose
  /// expectations all passed (cached artifacts are post-audit by
  /// contract). Hits are skipped (already cached), as are nodes with
  /// empty keys.
  void InsertFreshArtifacts(const RunReport& report,
                            const cache::NodeFingerprints& keys);

  /// The per-node FunctionRequest both naive paths dispatch: inputs list
  /// every upstream artifact, memory is sized from their bytes, and the
  /// body (scan sources, fetch spills, run the node, spill the output)
  /// writes its results into `node_report` and the shared context.
  /// `node_span` parents the body's scan/sql/expectation/spill spans.
  runtime::FunctionRequest BuildNaiveRequest(
      internal::NaiveRunContext& ctx, const std::string& name,
      NodeExecution* node_report, uint64_t node_span);

  /// Container spec for a node (interpreter + its requirement set mapped
  /// onto synthetic packages).
  runtime::ContainerSpec SpecForNode(const pipeline::PipelineNode& node);

  Clock* clock_;
  const catalog::Catalog* catalog_;
  const table::TableOps* ops_;
  runtime::ServerlessExecutor* executor_;
  storage::MeteredObjectStore* spill_store_;
  observability::Tracer* tracer_;
  cache::ArtifactCache* cache_;
  /// Function invocations never dispatched because the node was served
  /// from the cache (the bench's cone gate reads this).
  observability::Counter* skipped_invocations_;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_PIPELINE_RUNNER_H_
