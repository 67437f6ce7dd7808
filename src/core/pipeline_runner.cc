#include "core/pipeline_runner.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <set>

#include "analysis/lineage.h"
#include "columnar/serialize.h"
#include "common/hash.h"
#include "common/strings.h"
#include "core/lakehouse_source.h"
#include "expectations/expectation.h"
#include "sql/engine.h"

namespace bauplan::core {

using columnar::Table;
using observability::ScopedSpan;
using pipeline::Dag;
using pipeline::NodeKind;
using pipeline::PipelineNode;

namespace internal {

/// State one naive run's node functions share: the selection, the sizes
/// of artifacts produced so far, and the report the bodies write into.
/// `mu` serializes body writes when nodes run on a wavefront.
struct NaiveRunContext {
  const Dag* dag = nullptr;
  const catalog::PinnedTables* tables = nullptr;  // the run's input commit
  std::set<std::string> selected_set;
  sql::ExecOptions exec;  // execution knobs for every SQL node body
  RunReport* report = nullptr;
  std::mutex mu;
  /// Artifact name -> serialized bytes (produced this run, or estimated
  /// from catalog metadata for replayed upstreams).
  std::map<std::string, int64_t> artifact_bytes;
};

}  // namespace internal

namespace {

/// Estimated function memory for a table of `bytes`: artifact + working
/// set, floored at 256 MiB — the vertical-elasticity knob.
uint64_t MemoryForBytes(int64_t bytes) {
  uint64_t need = static_cast<uint64_t>(bytes) * 3;
  return std::max<uint64_t>(need, 256ull << 20);
}

std::vector<std::string> SelectOrAll(const Dag& dag,
                                     const std::vector<std::string>& sel) {
  if (sel.empty()) return dag.execution_order();
  return sel;
}

std::string SpillKey(const std::string& node) {
  return StrCat("spill/", node, ".tbl");
}

/// Does any *selected* node read `name`'s output? When nothing selected
/// consumes it, a cache hit needs no spill-store materialization — the
/// table only has to reach the run's artifact map.
bool HasSelectedConsumer(const Dag& dag,
                         const std::set<std::string>& selected_set,
                         const std::string& name) {
  for (const auto& candidate : dag.execution_order()) {
    if (selected_set.count(candidate) == 0) continue;
    for (const auto& up : dag.GetNode(candidate).upstream_nodes) {
      if (up == name) return true;
    }
  }
  return false;
}

/// Serialized-footprint estimate of a materialized catalog table:
/// records times an ~8-bytes-per-value row width. Used to size functions
/// reading replayed upstreams, where the exact spill size is unknown but
/// the row count is right in the table metadata.
int64_t EstimateCatalogArtifactBytes(const catalog::PinnedTables& tables,
                                     const table::TableOps* ops,
                                     const std::string& table_name) {
  auto metadata_key = tables.GetTable(table_name);
  if (!metadata_key.ok()) return 0;
  auto metadata = ops->LoadMetadata(*metadata_key);
  if (!metadata.ok()) return 0;
  auto snapshot = metadata->CurrentSnapshot();
  if (!snapshot.ok()) return 0;
  int64_t row_width = 8 * metadata->schema.num_fields() + 8;
  return snapshot->total_records * row_width;
}

}  // namespace

runtime::ContainerSpec PipelineRunner::SpecForNode(
    const PipelineNode& node) {
  runtime::ContainerSpec spec;
  for (const auto& req : node.requirements.items()) {
    // Map the declared requirement onto a synthetic package whose size
    // is derived from the name (deterministic, ~5-40 MiB).
    runtime::Package pkg;
    pkg.name = req.ToString();
    pkg.size_bytes =
        5ull * 1024 * 1024 +
        (Fnv1a64(pkg.name) % (35ull * 1024 * 1024));
    spec.packages.push_back(std::move(pkg));
  }
  return spec;
}

Result<RunReport> PipelineRunner::Execute(
    const Dag& dag, const std::string& ref,
    const PipelineRunOptions& options) {
  for (const auto& name : options.selected) {
    if (!dag.HasNode(name)) {
      return Status::NotFound(StrCat("no pipeline node named '", name,
                                     "'"));
    }
  }
  spill_store_->ResetMetrics();
  const catalog::PinnedTables tables = catalog_->Pin(ref);

  // Cache keys are derived once per run, before any dispatch: execution
  // knobs are absent from them by design, so the same map serves every
  // mode below. A null pointer tells the paths caching is off entirely.
  // Trimmed runs bypass the cache both ways: a trimmed artifact's bytes
  // depend on its *downstream* consumers, which an upstream-only Merkle
  // key cannot capture, so trimmed outputs can neither serve nor be
  // served by untrimmed ones.
  const bool cache_on = cache_ != nullptr && cache_->enabled() &&
                        options.use_cache && !options.trim_unused_columns;
  cache::NodeFingerprints keys;
  if (cache_on) {
    std::vector<std::string> all = SelectOrAll(dag, options.selected);
    keys = cache::ComputeNodeFingerprints(
        dag, std::set<std::string>(all.begin(), all.end()), tables);
  }
  const cache::NodeFingerprints* keys_ptr = cache_on ? &keys : nullptr;

  uint64_t run_span = 0;
  if (tracer_ != nullptr) {
    run_span = tracer_->StartSpan("run", observability::span_kind::kRun);
    tracer_->AddAttribute(run_span, "ref", ref);
    tracer_->AddAttribute(
        run_span, "mode",
        options.fused ? "fused"
                      : (options.parallelism > 1 ? "parallel_naive"
                                                 : "naive"));
    tracer_->AddAttribute(run_span, "cache",
                          cache_on ? "enabled" : "disabled");
  }

  Result<RunReport> result =
      options.fused
          ? ExecuteFused(dag, tables, SelectOrAll(dag, options.selected),
                         options.exec, options.trim_unused_columns,
                         keys_ptr, run_span)
          : (options.parallelism > 1
                 ? ExecuteParallelNaive(dag, tables,
                                        SelectOrAll(dag, options.selected),
                                        options.exec, options.parallelism,
                                        keys_ptr, run_span)
                 : ExecuteNaive(dag, tables,
                                SelectOrAll(dag, options.selected),
                                options.exec, keys_ptr, run_span));

  // Memoize what this run actually computed — post-audit only: a run
  // with a failing expectation vouches for nothing.
  if (result.ok() && cache_on && result->all_expectations_passed) {
    InsertFreshArtifacts(*result, keys);
  }

  if (tracer_ != nullptr) {
    tracer_->EndSpan(run_span);
    // Extract even on failure so aborted runs don't pile spans up in the
    // tracer; the trace only ships on success.
    observability::Trace trace = tracer_->ExtractTrace(run_span);
    if (result.ok()) result->trace = std::move(trace);
  }
  return result;
}

// --------------------------------------------------------------- fused

Result<RunReport> PipelineRunner::ExecuteFused(
    const Dag& dag, const catalog::PinnedTables& tables,
    const std::vector<std::string>& selected,
    const sql::ExecOptions& exec, bool trim_unused_columns,
    const cache::NodeFingerprints* keys, uint64_t run_span) {
  RunReport report;
  uint64_t start = clock_->NowMicros();

  // Cross-node projection trimming (run --trim): fold the whole DAG's
  // lineage once, then hand each node the set of output columns some
  // downstream node, expectation, or terminal artifact actually reads.
  // The optimizer wraps the node's plan in a projection, and pushdown
  // carries the narrowing all the way into the scans.
  std::map<std::string, std::vector<std::string>> required_columns;
  if (trim_unused_columns) {
    pipeline::PipelineProject lineage_project("lineage");
    for (const auto& name : dag.execution_order()) {
      const PipelineNode& node = *dag.GetNode(name).node;
      Status st = node.kind == NodeKind::kSqlModel
                      ? lineage_project.AddSqlNode(node.name, node.code,
                                                   node.requirements)
                      : lineage_project.AddExpectationNode(
                            node.name, node.code, node.requirements);
      if (!st.ok()) return st;
    }
    LakehouseSource schemas(ops_, tables);
    required_columns =
        analysis::BuildLineage(lineage_project, schemas)
            .RequiredOutputColumns();
  }

  // One function for the whole DAG: union of all requirements, memory
  // sized once the inputs are known (use a conservative default).
  runtime::ContainerSpec spec;
  std::set<std::string> seen_packages;
  for (const auto& name : selected) {
    auto node_spec = SpecForNode(*dag.GetNode(name).node);
    for (auto& pkg : node_spec.packages) {
      if (seen_packages.insert(pkg.name).second) {
        spec.packages.push_back(std::move(pkg));
      }
    }
  }

  runtime::FunctionRequest request;
  request.name = "fused_dag";
  request.spec = std::move(spec);
  request.memory_bytes = 4ull << 30;
  request.output_artifact = "fused_dag_output";
  // Keep the DAG's container warm between iterations: repeated `bauplan
  // run` invocations in a dev loop pay only the warm dispatch.
  request.keep_warm = true;
  std::set<std::string> selected_set(selected.begin(), selected.end());

  uint64_t fused_span = 0;
  if (tracer_ != nullptr) {
    fused_span = tracer_->StartSpan(
        "fused_dag", observability::span_kind::kInvocation, run_span);
  }

  request.body = [&]() -> Status {
    // All intermediates live in the source overlay; the engine pushes
    // WHERE filters and projections into the lakehouse scans.
    LakehouseSource source(ops_, tables);
    for (const auto& name : dag.execution_order()) {
      if (selected_set.count(name) == 0) continue;
      const PipelineNode& node = *dag.GetNode(name).node;
      NodeExecution node_report;
      node_report.name = name;
      node_report.kind = node.kind;
      // Fused hits skip the node's work inside the shared function (the
      // single invocation itself still runs — nothing is dispatched per
      // node in this mode, so skipped_invocations stays untouched).
      if (keys != nullptr && !keys->Find(name).empty()) {
        std::optional<cache::CachedArtifact> hit;
        {
          ScopedSpan probe(tracer_, name,
                           observability::span_kind::kCacheProbe,
                           fused_span);
          hit = cache_->Lookup(keys->Find(name));
        }
        if (hit.has_value()) {
          node_report.cache_hit = true;
          node_report.output_rows = hit->output_rows;
          if (node.kind == NodeKind::kSqlModel) {
            ScopedSpan mat(tracer_, name,
                           observability::span_kind::kCacheMaterialize,
                           fused_span);
            report.artifacts[name] = hit->table;
            source.AddOverlayTable(name, std::move(hit->table));
          } else {
            node_report.expectation_passed = hit->expectation_passed;
            node_report.details = hit->details;
            if (!hit->expectation_passed) {
              report.all_expectations_passed = false;
            }
          }
          report.nodes.push_back(std::move(node_report));
          continue;
        }
      }
      if (node.kind == NodeKind::kSqlModel) {
        ScopedSpan sql_span(tracer_, name,
                            observability::span_kind::kSql, fused_span);
        sql::QueryOptions qopts;
        qopts.exec = exec;
        if (auto it = required_columns.find(name);
            it != required_columns.end()) {
          qopts.optimizer.required_output_columns = it->second;
        }
        auto result = sql::RunQuery(node.code, source, &source, qopts);
        if (!result.ok()) {
          return result.status().WithContext(
              StrCat("node '", name, "'"));
        }
        node_report.output_rows = result->table.num_rows();
        report.artifacts[name] = result->table;
        source.AddOverlayTable(name, std::move(result->table));
      } else {
        ScopedSpan exp_span(tracer_, name,
                            observability::span_kind::kExpectation,
                            fused_span);
        BAUPLAN_ASSIGN_OR_RETURN(std::string target,
                                 node.ExpectationTarget());
        BAUPLAN_ASSIGN_OR_RETURN(
            expectations::Expectation expectation,
            expectations::ParseExpectation(node.code));
        BAUPLAN_ASSIGN_OR_RETURN(Table table,
                                 source.ScanTable(target, {}, {}));
        BAUPLAN_ASSIGN_OR_RETURN(auto outcome,
                                 expectation.Check(table));
        node_report.expectation_passed = outcome.passed;
        node_report.details = outcome.details;
        node_report.output_rows = table.num_rows();
        if (!outcome.passed) report.all_expectations_passed = false;
      }
      report.nodes.push_back(std::move(node_report));
    }
    return Status::OK();
  };

  Result<runtime::InvocationReport> invocation =
      executor_->Invoke(request);
  if (tracer_ != nullptr) tracer_->EndSpan(fused_span);
  BAUPLAN_RETURN_NOT_OK(invocation.status());
  NodeExecution fused;
  fused.name = invocation->name;
  fused.ApplyInvocation(*invocation);
  if (tracer_ != nullptr) {
    tracer_->AddAttribute(fused_span, "worker",
                          StrCat(invocation->worker));
  }
  report.fused = std::move(fused);
  report.total_micros = clock_->NowMicros() - start;
  report.spill_metrics = spill_store_->metrics();
  return report;
}

// --------------------------------------------------------------- naive

runtime::FunctionRequest PipelineRunner::BuildNaiveRequest(
    internal::NaiveRunContext& ctx, const std::string& name,
    NodeExecution* node_report, uint64_t node_span) {
  const pipeline::DagNode& dag_node = ctx.dag->GetNode(name);
  const PipelineNode& node = *dag_node.node;
  node_report->name = name;
  node_report->kind = node.kind;

  // Each node is its own serverless function reading inputs through
  // the object store — the isomorphic mapping of plan to execution.
  // Every upstream artifact is listed (placement and transfer see the
  // full input set, not just the last upstream).
  runtime::FunctionRequest request;
  request.name = name;
  request.spec = SpecForNode(node);
  request.output_artifact = SpillKey(name);

  int64_t input_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(ctx.mu);
    for (const auto& up : dag_node.upstream_nodes) {
      bool up_selected = ctx.selected_set.count(up) > 0;
      auto it = ctx.artifact_bytes.find(up);
      int64_t bytes = it != ctx.artifact_bytes.end() ? it->second : 0;
      if (it == ctx.artifact_bytes.end() && !up_selected) {
        bytes = EstimateCatalogArtifactBytes(*ctx.tables, ops_, up);
        ctx.artifact_bytes[up] = bytes;
      }
      input_bytes += bytes;
      // A replayed upstream lives in the catalog, not at any worker, so
      // its key never matches a recorded artifact — reading it always
      // pays the object-storage transfer.
      request.inputs.push_back(runtime::ArtifactRef{
          up_selected ? SpillKey(up) : StrCat("catalog/", up),
          static_cast<uint64_t>(bytes)});
    }
  }
  request.memory_bytes = MemoryForBytes(input_bytes);

  request.body = [this, &ctx, &dag_node, &node, name, node_report,
                  node_span]() -> Status {
    // Assemble inputs: source tables scanned in full (no pushdown —
    // the naive plan maps each logical op to one function), upstream
    // artifacts fetched from the spill store.
    sql::MemoryTableProvider inputs;
    for (const auto& table_name : dag_node.source_tables) {
      ScopedSpan scan_span(tracer_, table_name,
                           observability::span_kind::kScan, node_span);
      BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                               ctx.tables->GetTable(table_name));
      BAUPLAN_ASSIGN_OR_RETURN(Table table,
                               ops_->ScanTable(metadata_key));
      inputs.AddTable(table_name, std::move(table));
    }
    for (const auto& up : dag_node.upstream_nodes) {
      if (ctx.selected_set.count(up) > 0) {
        ScopedSpan spill_span(tracer_, StrCat("get ", SpillKey(up)),
                              observability::span_kind::kSpill,
                              node_span);
        BAUPLAN_ASSIGN_OR_RETURN(Bytes bytes,
                                 spill_store_->Get(SpillKey(up)));
        BAUPLAN_ASSIGN_OR_RETURN(Table table,
                                 columnar::DeserializeTable(bytes));
        inputs.AddTable(up, std::move(table));
      } else {
        // Replay subset: the upstream artifact was materialized by the
        // original run; read it from the catalog.
        ScopedSpan scan_span(tracer_, up,
                             observability::span_kind::kScan, node_span);
        BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                                 ctx.tables->GetTable(up));
        BAUPLAN_ASSIGN_OR_RETURN(Table table,
                                 ops_->ScanTable(metadata_key));
        inputs.AddTable(up, std::move(table));
      }
    }

    if (node.kind == NodeKind::kSqlModel) {
      sql::QueryOptions qopts;
      qopts.exec = ctx.exec;
      // No scan pushdown in the naive mapping.
      qopts.optimizer.pushdown_predicates = false;
      qopts.optimizer.pushdown_projections = false;
      Result<sql::QueryResult> result = [&] {
        ScopedSpan sql_span(tracer_, name,
                            observability::span_kind::kSql, node_span);
        return sql::RunQuery(node.code, inputs, &inputs, qopts);
      }();
      BAUPLAN_RETURN_NOT_OK(result.status());
      node_report->output_rows = result->table.num_rows();
      // Spill the artifact for downstream functions.
      Bytes payload = columnar::SerializeTable(result->table);
      int64_t payload_bytes = static_cast<int64_t>(payload.size());
      {
        ScopedSpan spill_span(tracer_, StrCat("put ", SpillKey(name)),
                              observability::span_kind::kSpill,
                              node_span);
        BAUPLAN_RETURN_NOT_OK(
            spill_store_->Put(SpillKey(name), std::move(payload)));
      }
      std::lock_guard<std::mutex> lock(ctx.mu);
      ctx.artifact_bytes[name] = payload_bytes;
      ctx.report->artifacts[name] = std::move(result->table);
    } else {
      ScopedSpan exp_span(tracer_, name,
                          observability::span_kind::kExpectation,
                          node_span);
      BAUPLAN_ASSIGN_OR_RETURN(std::string target,
                               node.ExpectationTarget());
      BAUPLAN_ASSIGN_OR_RETURN(
          expectations::Expectation expectation,
          expectations::ParseExpectation(node.code));
      BAUPLAN_ASSIGN_OR_RETURN(Table table,
                               inputs.ScanTable(target, {}, {}));
      BAUPLAN_ASSIGN_OR_RETURN(auto outcome, expectation.Check(table));
      node_report->expectation_passed = outcome.passed;
      node_report->details = outcome.details;
      node_report->output_rows = table.num_rows();
      if (!outcome.passed) {
        std::lock_guard<std::mutex> lock(ctx.mu);
        ctx.report->all_expectations_passed = false;
      }
    }
    return Status::OK();
  };
  return request;
}

bool PipelineRunner::TryServeFromCache(
    internal::NaiveRunContext& ctx, const cache::NodeFingerprints* keys,
    const std::string& name, bool has_selected_consumer,
    NodeExecution* node_report, uint64_t node_span) {
  if (keys == nullptr) return false;
  const std::string& key = keys->Find(name);
  if (key.empty()) return false;

  const PipelineNode& node = *ctx.dag->GetNode(name).node;
  std::optional<cache::CachedArtifact> hit;
  {
    ScopedSpan probe(tracer_, name,
                     observability::span_kind::kCacheProbe, node_span);
    hit = cache_->Lookup(key);
  }
  if (!hit.has_value()) return false;

  if (node.kind == NodeKind::kSqlModel && has_selected_consumer) {
    // Downstream functions fetch their inputs from the spill store;
    // re-materialize the cached table under the node's spill key so
    // their bodies stay oblivious to where it came from. If the put
    // fails, fall back to executing the node — cache trouble never
    // fails a run.
    Bytes payload = columnar::SerializeTable(hit->table);
    int64_t payload_bytes = static_cast<int64_t>(payload.size());
    Status put_status = [&] {
      ScopedSpan mat(tracer_, StrCat("put ", SpillKey(name)),
                     observability::span_kind::kCacheMaterialize,
                     node_span);
      return spill_store_->Put(SpillKey(name), std::move(payload));
    }();
    if (!put_status.ok()) return false;
    std::lock_guard<std::mutex> lock(ctx.mu);
    ctx.artifact_bytes[name] = payload_bytes;
  }

  node_report->name = name;
  node_report->kind = node.kind;
  node_report->cache_hit = true;
  node_report->output_rows = hit->output_rows;
  {
    std::lock_guard<std::mutex> lock(ctx.mu);
    if (node.kind == NodeKind::kSqlModel) {
      ctx.report->artifacts[name] = std::move(hit->table);
    } else {
      node_report->expectation_passed = hit->expectation_passed;
      node_report->details = hit->details;
      if (!hit->expectation_passed) {
        ctx.report->all_expectations_passed = false;
      }
    }
  }
  if (skipped_invocations_ != nullptr) skipped_invocations_->Increment();
  return true;
}

void PipelineRunner::InsertFreshArtifacts(
    const RunReport& report, const cache::NodeFingerprints& keys) {
  for (const NodeExecution& node : report.nodes) {
    if (node.cache_hit) continue;
    const std::string& key = keys.Find(node.name);
    if (key.empty()) continue;
    cache::CachedArtifact artifact;
    artifact.kind = node.kind;
    artifact.output_rows = node.output_rows;
    if (node.kind == NodeKind::kSqlModel) {
      auto it = report.artifacts.find(node.name);
      if (it == report.artifacts.end()) continue;
      artifact.table = it->second;
    } else {
      artifact.expectation_passed = node.expectation_passed;
      artifact.details = node.details;
    }
    cache_->Insert(key, artifact);
  }
}

Result<RunReport> PipelineRunner::ExecuteNaive(
    const Dag& dag, const catalog::PinnedTables& tables,
    const std::vector<std::string>& selected,
    const sql::ExecOptions& exec, const cache::NodeFingerprints* keys,
    uint64_t run_span) {
  RunReport report;
  uint64_t start = clock_->NowMicros();

  internal::NaiveRunContext ctx;
  ctx.dag = &dag;
  ctx.tables = &tables;
  ctx.selected_set = std::set<std::string>(selected.begin(),
                                           selected.end());
  ctx.exec = exec;
  ctx.report = &report;

  for (const auto& name : dag.execution_order()) {
    if (ctx.selected_set.count(name) == 0) continue;
    NodeExecution node_report;
    // Sequential walk: the node span brackets the whole invocation
    // (placement, startup, body) on the shared clock.
    uint64_t node_span = 0;
    if (tracer_ != nullptr) {
      node_span = tracer_->StartSpan(
          name, observability::span_kind::kNode, run_span);
    }
    if (TryServeFromCache(ctx, keys, name,
                          HasSelectedConsumer(dag, ctx.selected_set,
                                              name),
                          &node_report, node_span)) {
      if (tracer_ != nullptr) {
        tracer_->AddAttribute(node_span, "cache_hit", "true");
        tracer_->EndSpan(node_span);
      }
      report.nodes.push_back(std::move(node_report));
      continue;
    }
    runtime::FunctionRequest request =
        BuildNaiveRequest(ctx, name, &node_report, node_span);
    Result<runtime::InvocationReport> invocation =
        executor_->Invoke(request);
    if (tracer_ != nullptr) tracer_->EndSpan(node_span);
    BAUPLAN_RETURN_NOT_OK(invocation.status());
    node_report.ApplyInvocation(*invocation);
    if (tracer_ != nullptr) {
      tracer_->AddAttribute(node_span, "worker",
                            StrCat(invocation->worker));
    }
    report.nodes.push_back(std::move(node_report));
  }

  report.total_micros = clock_->NowMicros() - start;
  report.spill_metrics = spill_store_->metrics();
  return report;
}

Result<RunReport> PipelineRunner::ExecuteParallelNaive(
    const Dag& dag, const catalog::PinnedTables& tables,
    const std::vector<std::string>& selected,
    const sql::ExecOptions& exec, int parallelism,
    const cache::NodeFingerprints* keys, uint64_t run_span) {
  RunReport report;
  uint64_t start = clock_->NowMicros();

  internal::NaiveRunContext ctx;
  ctx.dag = &dag;
  ctx.tables = &tables;
  ctx.selected_set = std::set<std::string>(selected.begin(),
                                           selected.end());
  ctx.exec = exec;
  ctx.report = &report;

  // Wave bodies run on forked timelines only when the executor's clock
  // can fork; otherwise InvokeWave degrades to sequential invocations on
  // the shared clock and span intervals need no queue fixup.
  const bool forked_waves =
      dynamic_cast<ForkableClock*>(clock_) != nullptr;

  // Ready-set bookkeeping: indegree among selected nodes only (replayed
  // upstreams are already materialized, hence never block).
  std::map<std::string, int> indegree;
  std::map<std::string, std::vector<std::string>> downstream;
  for (const auto& name : dag.execution_order()) {
    if (ctx.selected_set.count(name) == 0) continue;
    int degree = 0;
    for (const auto& up : dag.GetNode(name).upstream_nodes) {
      if (ctx.selected_set.count(up) == 0) continue;
      ++degree;
      downstream[up].push_back(name);
    }
    indegree[name] = degree;
  }

  // NodeExecutions live in a deque so function bodies hold stable
  // pointers across waves.
  std::deque<NodeExecution> slots;
  std::map<std::string, NodeExecution*> slot_of;
  std::map<std::string, uint64_t> span_of;
  std::set<std::string> dispatched;
  std::set<std::string> probed;  // each node probes the cache only once
  size_t completed = 0;
  int wave_index = 0;

  while (completed < indegree.size()) {
    // Serve ready cache hits before forming the wave: a hit completes
    // its node with no container or memory reservation, which can
    // unblock further hits downstream — a fully-warm cone drains right
    // here without dispatching a single wave. Hit spans parent under
    // the run span (they belong to no wave); missed nodes keep their
    // pre-created span and re-parent under the wave that dispatches
    // them, exactly like a resource bounce.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (const auto& name : dag.execution_order()) {
        auto it = indegree.find(name);
        if (it == indegree.end() || it->second > 0) continue;
        if (dispatched.count(name) > 0 || probed.count(name) > 0) {
          continue;
        }
        if (keys == nullptr || keys->Find(name).empty()) continue;
        probed.insert(name);
        NodeExecution*& slot = slot_of[name];
        if (slot == nullptr) {
          slots.emplace_back();
          slot = &slots.back();
        }
        uint64_t node_span = 0;
        if (tracer_ != nullptr) {
          uint64_t& span = span_of[name];
          if (span == 0) {
            span = tracer_->StartSpan(
                name, observability::span_kind::kNode, run_span);
          }
          node_span = span;
        }
        if (!TryServeFromCache(ctx, keys, name,
                               HasSelectedConsumer(dag, ctx.selected_set,
                                                   name),
                               slot, node_span)) {
          continue;  // dispatches in a wave; span interval set there
        }
        if (tracer_ != nullptr) {
          tracer_->AddAttribute(node_span, "cache_hit", "true");
          tracer_->EndSpan(node_span);
        }
        dispatched.insert(name);
        ++completed;
        for (const auto& down : downstream[name]) --indegree[down];
        progressed = true;
      }
    }
    if (completed >= indegree.size()) break;

    uint64_t wave_start = clock_->NowMicros();
    uint64_t wave_span = 0;
    if (tracer_ != nullptr) {
      wave_span = tracer_->StartSpan(
          StrCat("wave_", wave_index),
          observability::span_kind::kWave, run_span);
    }
    ++wave_index;

    // The next wave: every undispatched node whose selected upstreams
    // all finished, in execution order (deterministic).
    std::vector<runtime::FunctionRequest> ready;
    for (const auto& name : dag.execution_order()) {
      auto it = indegree.find(name);
      if (it == indegree.end() || it->second > 0) continue;
      if (dispatched.count(name) > 0) continue;
      NodeExecution*& slot = slot_of[name];
      if (slot == nullptr) {
        slots.emplace_back();
        slot = &slots.back();
      }
      uint64_t node_span = 0;
      if (tracer_ != nullptr) {
        uint64_t& span = span_of[name];
        if (span == 0) {
          // Pre-created: the member's final interval is only known once
          // the wave completes (per-worker serialization).
          span = tracer_->StartSpan(
              name, observability::span_kind::kNode, wave_span);
        } else {
          // Bounced in an earlier wave; it re-dispatches under this one.
          tracer_->SetSpanParent(span, wave_span);
        }
        node_span = span;
      }
      ready.push_back(BuildNaiveRequest(ctx, name, slot, node_span));
      dispatched.insert(name);
    }
    if (ready.empty()) {
      if (tracer_ != nullptr) tracer_->EndSpan(wave_span);
      return Status::Internal(
          "pipeline wavefront stalled with nodes unfinished");
    }

    Result<runtime::WaveReport> wave =
        executor_->InvokeWave(std::move(ready), parallelism);
    if (tracer_ != nullptr) tracer_->EndSpan(wave_span);
    BAUPLAN_RETURN_NOT_OK(wave.status());

    // Degraded (sequential) waves run members back to back; track the
    // running offset to place their spans.
    uint64_t sequential_offset = 0;
    for (runtime::InvocationReport& invocation : wave->reports) {
      const std::string node_name = invocation.name;
      if (tracer_ != nullptr) {
        uint64_t span = span_of.at(node_name);
        uint64_t begin = forked_waves
                             ? wave_start + invocation.queue_micros
                             : wave_start + sequential_offset;
        uint64_t end = forked_waves
                           ? wave_start + invocation.total_micros
                           : begin + invocation.total_micros;
        tracer_->SetSpanInterval(span, begin, end);
        if (forked_waves && invocation.queue_micros > 0) {
          // Body children were stamped on a fork starting at
          // wave_start + prelude; slide them to the member's real slot.
          tracer_->ShiftDescendants(
              span, static_cast<int64_t>(invocation.queue_micros));
        }
        tracer_->AddAttribute(span, "worker", StrCat(invocation.worker));
        sequential_offset += invocation.total_micros;
      }
      slot_of.at(node_name)->ApplyInvocation(invocation);
      ++completed;
      for (const auto& down : downstream[node_name]) --indegree[down];
    }
    // Members bounced on resources stay ready; rebuild them next wave.
    for (const runtime::FunctionRequest& bounced : wave->deferred) {
      dispatched.erase(bounced.name);
    }
  }

  // Merge per-node reports deterministically, in execution order — the
  // same order the sequential walk emits.
  for (const auto& name : dag.execution_order()) {
    auto it = slot_of.find(name);
    if (it == slot_of.end()) continue;
    report.nodes.push_back(std::move(*it->second));
  }

  report.total_micros = clock_->NowMicros() - start;
  report.spill_metrics = spill_store_->metrics();
  return report;
}

}  // namespace bauplan::core
