#include "core/bauplan.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/strings.h"
#include "core/lakehouse_source.h"

namespace bauplan::core {

Bauplan::Bauplan(storage::ObjectStore* base_store, Clock* clock,
                 BauplanOptions options)
    : clock_(clock), options_(std::move(options)) {
  // Every component runs on the forkable wrapper: sequential paths pass
  // straight through to the caller's clock, while wavefront execution
  // gives each concurrent function body its own virtual timeline.
  fork_clock_ = std::make_unique<ForkableClock>(clock);
  ForkableClock* run_clock = fork_clock_.get();
  // One registry + tracer for the whole platform: components below
  // register their counters here, and the runner / query path stamp
  // spans from the forkable clock so wavefront traces stay
  // deterministic.
  metrics_ = std::make_unique<observability::MetricsRegistry>();
  tracer_ = std::make_unique<observability::Tracer>(run_clock);
  lake_store_ = std::make_unique<storage::MeteredObjectStore>(
      base_store, run_clock, options_.lake_latency, options_.lake_cost,
      "store.lake", metrics_.get());
  spill_backing_ = std::make_unique<storage::MemoryObjectStore>();
  spill_store_ = std::make_unique<storage::MeteredObjectStore>(
      spill_backing_.get(), run_clock, options_.lake_latency,
      options_.lake_cost, "store.spill", metrics_.get());
  package_cache_ = std::make_unique<runtime::PackageCache>(
      run_clock, options_.package_cache, metrics_.get());
  containers_ = std::make_unique<runtime::ContainerManager>(
      run_clock, package_cache_.get(), options_.containers,
      metrics_.get());
  scheduler_ = std::make_unique<runtime::Scheduler>(
      run_clock, options_.scheduler, metrics_.get());
  executor_ = std::make_unique<runtime::ServerlessExecutor>(
      run_clock, containers_.get(), scheduler_.get());
  audit_ = std::make_unique<AuditLog>(lake_store_.get(), run_clock);
  query_cache_ = std::make_unique<QueryResultCache>(
      options_.query_cache_bytes, metrics_.get());
  artifact_cache_ = std::make_unique<cache::ArtifactCache>(
      lake_store_.get(), options_.artifact_cache_bytes, metrics_.get());
}

void Bauplan::Audit(const std::string& operation, const std::string& ref,
                    const std::string& detail, const Status& outcome) {
  if (!options_.enable_audit_log) return;
  Status st = audit_->Record(options_.author, operation, ref, detail,
                             outcome.ok() ? "ok" : outcome.ToString());
  if (!st.ok()) {
    LogWarning(StrCat("audit write failed: ", st.ToString()));
  }
}

Result<std::unique_ptr<Bauplan>> Bauplan::Open(
    storage::ObjectStore* base_store, Clock* clock,
    BauplanOptions options) {
  std::unique_ptr<Bauplan> platform(
      new Bauplan(base_store, clock, std::move(options)));
  ForkableClock* run_clock = platform->fork_clock_.get();
  BAUPLAN_ASSIGN_OR_RETURN(
      catalog::Catalog catalog,
      catalog::Catalog::Open(platform->lake_store_.get(), run_clock));
  platform->catalog_ = std::make_unique<catalog::Catalog>(catalog);
  platform->table_ops_ = std::make_unique<table::TableOps>(
      platform->lake_store_.get(), run_clock);
  platform->registry_ = std::make_unique<pipeline::RunRegistry>(
      platform->lake_store_.get(), run_clock);
  // Adopt whatever artifacts earlier processes left in the lake store —
  // the cache is durable state, not a per-process accelerator.
  platform->artifact_cache_->LoadIndex();
  platform->runner_ = std::make_unique<PipelineRunner>(
      run_clock, platform->table_ops_.get(),
      platform->executor_.get(), platform->spill_store_.get(),
      platform->tracer_.get(), platform->artifact_cache_.get(),
      platform->metrics_.get());
  return platform;
}

// --------------------------------------------------------------- tables

Status Bauplan::CreateTable(const std::string& branch,
                            const std::string& name,
                            const columnar::Schema& schema,
                            const table::PartitionSpec& spec) {
  if (catalog_->GetTable(branch, name).ok()) {
    return Status::AlreadyExists(
        StrCat("table '", name, "' already exists on '", branch, "'"));
  }
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                           table_ops_->CreateTable(name, schema, spec));
  catalog::TableChanges changes;
  changes.puts[name] = metadata_key;
  Status st = catalog_
                  ->CommitChanges(branch, StrCat("create table ", name),
                                  options_.author, changes)
                  .status();
  Audit("create_table", branch, name, st);
  return st;
}

Status Bauplan::WriteTable(const std::string& branch,
                           const std::string& name,
                           const columnar::Table& data, bool overwrite) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                           catalog_->GetTable(branch, name));
  Result<std::string> updated =
      overwrite ? table_ops_->Overwrite(metadata_key, data)
                : table_ops_->Append(metadata_key, data);
  BAUPLAN_RETURN_NOT_OK(updated.status());
  catalog::TableChanges changes;
  changes.puts[name] = *updated;
  Status st =
      catalog_
          ->CommitChanges(branch,
                          StrCat(overwrite ? "overwrite" : "append", " ",
                                 data.num_rows(), " rows into ", name),
                          options_.author, changes)
          .status();
  Audit("write_table", branch,
        StrCat(name, " (", data.num_rows(), " rows)"), st);
  return st;
}

Result<columnar::Table> Bauplan::ReadTable(
    const catalog::RefSpec& ref, const std::string& name,
    const table::ScanOptions& options) const {
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                           catalog_->Pin(ref).GetTable(name));
  return table_ops_->ScanTable(metadata_key, options);
}

Result<std::vector<std::string>> Bauplan::ListTables(
    const catalog::RefSpec& ref) const {
  catalog::PinnedTables pinned = catalog_->Pin(ref);
  BAUPLAN_RETURN_NOT_OK(pinned.tables().status());
  std::vector<std::string> names;
  names.reserve(pinned.tables()->size());
  for (const auto& [name, key] : *pinned.tables()) names.push_back(name);
  return names;
}

Status Bauplan::CreateTableAs(const catalog::RefSpec& ref,
                              const std::string& name,
                              std::string_view sql_text) {
  // Read at the full ref (possibly as-of); write to its branch.
  BAUPLAN_ASSIGN_OR_RETURN(sql::QueryResult result, Query(sql_text, ref));
  const std::string& branch = ref.name();
  BAUPLAN_RETURN_NOT_OK(CreateTable(branch, name, result.table.schema()));
  return WriteTable(branch, name, result.table, /*overwrite=*/true);
}

// ---------------------------------------------------------------- query

Result<sql::QueryResult> Bauplan::Query(std::string_view sql_text,
                                        const catalog::RefSpec& ref,
                                        const sql::QueryOptions& options) {
  std::string sql(sql_text);
  // Resolution failures fall back to scanning the raw name below, so a
  // ref that swallowed a malformed @timestamp must be rejected here —
  // the fallback would turn the typo into an unknown-table error.
  BAUPLAN_RETURN_NOT_OK(ref.status());
  const std::string ref_text = ref.ToString();
  uint64_t query_span = tracer_->StartSpan(
      "query", observability::span_kind::kQuery);
  tracer_->AddAttribute(query_span, "ref", ref_text);
  auto finish_trace = [&](sql::QueryResult* r) {
    tracer_->EndSpan(query_span);
    observability::Trace trace = tracer_->ExtractTrace(query_span);
    if (r != nullptr) r->trace = std::move(trace);
  };
  LogDebug(StrCat("query at ", ref_text, ": ", sql));
  // The result cache is sound because refs resolve to immutable commits
  // (an as-of ref resolves to the snapshot commit, so it caches too).
  // A commit id is pinned up front: its one commit read both proves it
  // exists and yields the table map. Any other ref resolves first, so a
  // cache hit costs only the ref read.
  std::optional<catalog::PinnedTables> pinned;
  if (!ref.has_timestamp() &&
      catalog::Catalog::LooksLikeCommitId(ref.name())) {
    pinned = catalog_->PinCommit(ref.name(), ref_text);
  }
  Result<std::string> commit =
      !pinned.has_value()     ? catalog_->Resolve(ref)
      : pinned->tables().ok() ? Result<std::string>(pinned->commit_id())
                              : Result<std::string>(pinned->tables().status());
  if (commit.ok()) {
    sql::QueryResult cached;
    // A hit replays the whole original payload — stats, and (when the
    // caller captures plans) plan text and lints — so cached and
    // uncached executions are indistinguishable except from_cache.
    if (query_cache_->Lookup(sql, *commit, options.capture_plans,
                             &cached)) {
      cached.from_cache = true;
      tracer_->AddAttribute(query_span, "cache", "hit");
      LogDebug(StrCat("query cache hit at commit ", *commit));
      finish_trace(&cached);
      Audit("query", ref_text, StrCat(sql, " [cache hit]"), Status::OK());
      return cached;
    }
  }
  // Scans read the resolved commit's table map, so an as-of ref sees
  // history. A failed resolution is kept: the first table lookup
  // returns it, and a query that names no table still runs.
  if (!pinned.has_value()) {
    pinned = commit.ok() ? catalog_->PinCommit(*commit, ref_text)
                         : catalog::PinnedTables(ref_text, commit.status());
  }
  LakehouseSource source(table_ops_.get(), std::move(*pinned));
  sql::QueryOptions traced = options;
  traced.tracer = tracer_.get();
  traced.parent_span = query_span;
  traced.exec.metrics = metrics_.get();
  if (traced.exec.spill_store == nullptr) {
    // Budgeted operators spill through the metered store so spill
    // traffic shows up in the platform metrics like any other I/O.
    traced.exec.spill_store = spill_store_.get();
  }
  auto result = sql::RunQuery(sql, source, &source, traced);
  finish_trace(result.ok() ? &*result : nullptr);
  Audit("query", ref_text, sql, result.status());
  if (result.ok() && commit.ok()) {
    query_cache_->Insert(sql, *commit, *result, options.capture_plans);
  }
  return result;
}

// ------------------------------------------------------------- branches

Status Bauplan::CreateBranch(const std::string& name,
                             const std::string& from) {
  Status st = catalog_->CreateBranch(name, from);
  Audit("create_branch", name, StrCat("from ", from), st);
  return st;
}

Status Bauplan::DeleteBranch(const std::string& name) {
  Status st = catalog_->DeleteBranch(name);
  Audit("delete_branch", name, "", st);
  return st;
}

Result<catalog::MergeResult> Bauplan::MergeBranch(const std::string& from,
                                                  const std::string& into) {
  auto result = catalog_->Merge(from, into, options_.author);
  Audit("merge", into, StrCat("from ", from), result.status());
  return result;
}

Result<std::vector<std::string>> Bauplan::ListBranches() const {
  return catalog_->ListBranches();
}

Result<std::vector<catalog::Commit>> Bauplan::Log(const std::string& ref,
                                                  size_t limit) const {
  return catalog_->Log(ref, limit);
}

// ---------------------------------------------------------------- check

Result<analysis::AnalysisResult> Bauplan::Check(
    const pipeline::PipelineProject& project, const catalog::RefSpec& ref) {
  catalog::PinnedTables pinned = catalog_->Pin(ref);
  BAUPLAN_RETURN_NOT_OK(pinned.tables().status());
  return CheckPinned(project, pinned, nullptr);
}

analysis::AnalysisResult Bauplan::CheckPinned(
    const pipeline::PipelineProject& project,
    const catalog::PinnedTables& pinned, const MetadataByKey* metadata) {
  std::set<std::string> known;
  for (const auto& [name, key] : *pinned.tables()) known.insert(name);
  // Schemas resolve at the pinned commit, exactly as a run's scans would.
  LakehouseSource source(table_ops_.get(), pinned, metadata);
  analysis::Analyzer analyzer(std::move(known), &source);
  analysis::AnalyzerOptions opts;
  opts.tracer = tracer_.get();
  opts.metrics = metrics_.get();
  analysis::AnalysisResult result = analyzer.Analyze(project, opts);
  if (result.root_span != 0) {
    result.trace = tracer_->ExtractTrace(result.root_span);
  }
  Audit("check", pinned.ref(),
        StrCat(project.name(), ": ",
               result.diagnostics.error_count(), " error(s), ",
               result.diagnostics.warning_count(), " warning(s)"),
        result.ok()
            ? Status::OK()
            : Status::FailedPrecondition("static analysis found errors"));
  return result;
}

// ------------------------------------------------------------------ run

namespace {

/// Publishes artifact `name` as a new snapshot of its table, starting
/// from the table's metadata at the pinned commit (`metadata` when it
/// holds it) or from a fresh table; touches only that table's keys. A
/// cache hit publishes by reference: when the pinned snapshot already is
/// the entry's manifest nothing is written (nullopt), and otherwise the
/// entry's files are committed as they are, with no data byte. Anything
/// else writes `data`.
Result<std::optional<table::WrittenSnapshot>> PublishArtifact(
    table::TableOps* ops, const catalog::PinnedTables& pinned,
    const MetadataByKey& metadata, const std::string& name,
    const columnar::Table& data, const cache::CachedArtifact* hit) {
  table::TableMetadata current;
  auto metadata_key = pinned.GetTable(name);
  if (metadata_key.status().IsNotFound()) {
    BAUPLAN_ASSIGN_OR_RETURN(std::string created,
                             ops->CreateTable(name, data.schema()));
    BAUPLAN_ASSIGN_OR_RETURN(current, ops->LoadMetadata(created));
  } else {
    BAUPLAN_RETURN_NOT_OK(metadata_key.status());
    auto it = metadata.find(*metadata_key);
    if (it != metadata.end()) {
      current = it->second;
    } else {
      BAUPLAN_ASSIGN_OR_RETURN(current, ops->LoadMetadata(*metadata_key));
    }
  }
  if (hit != nullptr && current.schema == hit->schema &&
      current.spec.IsUnpartitioned()) {
    auto snapshot = current.CurrentSnapshot();
    if (snapshot.ok() && snapshot->manifest_keys ==
                             std::vector<std::string>{hit->manifest_key}) {
      return std::nullopt;
    }
    BAUPLAN_ASSIGN_OR_RETURN(
        table::WrittenSnapshot by_reference,
        ops->CommitFileSet(std::move(current), hit->files, "overwrite"));
    return std::optional<table::WrittenSnapshot>(std::move(by_reference));
  }
  BAUPLAN_ASSIGN_OR_RETURN(table::WrittenSnapshot fresh,
                           ops->Overwrite(std::move(current), data));
  return std::optional<table::WrittenSnapshot>(std::move(fresh));
}

/// Threads of a run's write wave. Simulated time does not depend on it.
constexpr int kWriteWaveThreads = 4;

}  // namespace

Result<catalog::MergeResult> Bauplan::MaterializeArtifacts(
    const RunReport& execution, const CacheLedger& ledger,
    const catalog::PinnedTables& pinned, const MetadataByKey& metadata,
    const std::string& branch) {
  // Wave members: every artifact, then every freshly audited expectation
  // whose outcome the cache may record.
  std::vector<std::string> names;
  std::vector<const columnar::Table*> data;
  for (const auto& [name, table] : execution.artifacts) {
    names.push_back(name);
    data.push_back(&table);
  }
  std::vector<const NodeExecution*> outcomes;
  for (const NodeExecution& node : execution.nodes) {
    if (node.kind == pipeline::NodeKind::kExpectation && !node.cache_hit &&
        !ledger.keys.Find(node.name).empty()) {
      outcomes.push_back(&node);
    }
  }

  std::vector<Result<std::optional<table::WrittenSnapshot>>> written(
      names.size(), Status::Internal("artifact not written"));
  auto member = [&](size_t i) {
    if (i >= names.size()) {
      const NodeExecution& node = *outcomes[i - names.size()];
      cache::CachedArtifact outcome;
      outcome.kind = node.kind;
      outcome.output_rows = node.output_rows;
      outcome.expectation_passed = node.expectation_passed;
      outcome.details = node.details;
      artifact_cache_->Insert(ledger.keys.Find(node.name), outcome);
      return;
    }
    auto hit = ledger.hits.find(names[i]);
    written[i] = PublishArtifact(
        table_ops_.get(), pinned, metadata, names[i], *data[i],
        hit == ledger.hits.end() ? nullptr : &hit->second);
    // A freshly written artifact is memoized as the files it now lives
    // in when its table is unpartitioned: that one file (none for an
    // empty table) decodes back to the artifact in row order.
    const std::string& key = ledger.keys.Find(names[i]);
    if (hit != ledger.hits.end() || key.empty() || !written[i].ok() ||
        !written[i]->has_value()) {
      return;
    }
    const table::WrittenSnapshot& snapshot = **written[i];
    for (const auto& file : snapshot.files) {
      if (!file.partition.empty()) return;
    }
    cache::CachedArtifact entry;
    entry.kind = pipeline::NodeKind::kSqlModel;
    entry.output_rows = data[i]->num_rows();
    entry.schema = data[i]->schema();
    entry.manifest_key = snapshot.manifest_key;
    entry.files = snapshot.files;
    artifact_cache_->Insert(key, entry);
  };
  // One write wave: every member starts at the same instant on its own
  // fork, and the run waits for the slowest.
  const size_t members = names.size() + outcomes.size();
  if (members > 0) {
    std::vector<uint64_t> elapsed = fork_clock_->RunForked(
        std::vector<uint64_t>(members, fork_clock_->NowMicros()),
        kWriteWaveThreads, member);
    fork_clock_->AdvanceMicros(
        *std::max_element(elapsed.begin(), elapsed.end()));
  }

  // Nothing is committed unless every write landed; the error is the
  // first failure in artifact-name order, whichever thread hit it first.
  catalog::TableChanges changes;
  std::vector<std::string> changed;
  for (size_t i = 0; i < names.size(); ++i) {
    BAUPLAN_RETURN_NOT_OK(written[i].status());
    if (!written[i]->has_value()) continue;
    changes.puts[names[i]] = (*written[i])->metadata_key;
    changed.push_back(names[i]);
  }
  // No table changed: the branch already holds every artifact.
  if (changes.puts.empty()) {
    BAUPLAN_ASSIGN_OR_RETURN(std::string head, catalog_->BranchHead(branch));
    return catalog::MergeResult{head, true};
  }
  return catalog_->CommitOnto(
      pinned, branch,
      StrCat("run ", execution.run_id, ": ", StrJoin(changed, ", ")),
      options_.author, changes);
}

Result<RunReport> Bauplan::Run(const pipeline::PipelineProject& project,
                               const std::string& branch,
                               const PipelineRunOptions& options) {
  // The run reads one commit of `branch`, resolved here once: the
  // pre-flight, the run record, the DAG and every node body see it, and
  // the publish commit names it as its parent.
  BAUPLAN_ASSIGN_OR_RETURN(std::string head, catalog_->BranchHead(branch));
  const catalog::PinnedTables pinned = catalog_->PinCommit(head, branch);
  BAUPLAN_RETURN_NOT_OK(pinned.tables().status());
  std::set<std::string> known;
  for (const auto& [name, key] : *pinned.tables()) known.insert(name);
  auto dag = pipeline::Dag::Build(project, known);

  // The metadata of every pinned table the project names (its models'
  // tables and the DAG's sources), loaded as one batch and shared by the
  // pre-flight, the node bodies and the publish.
  std::set<std::string> named;
  for (const auto& node : project.nodes()) named.insert(node.name);
  if (dag.ok()) {
    for (const auto& name : dag->execution_order()) {
      for (const auto& source : dag->GetNode(name).source_tables) {
        named.insert(source);
      }
    }
  }
  const MetadataByKey metadata =
      LoadPinnedMetadata(*table_ops_, pinned, named);

  // Pre-flight: refuse to schedule a project the analyzer rejects —
  // before a run is registered or any container is acquired.
  // `--no-verify` (options.verify = false) skips this.
  if (options.verify) {
    analysis::AnalysisResult check = CheckPinned(project, pinned, &metadata);
    if (!check.ok()) {
      return Status::FailedPrecondition(
          StrCat("project failed static analysis (re-run with --no-verify "
                 "to force):\n",
                 check.diagnostics.ToText()));
    }
  }
  BAUPLAN_ASSIGN_OR_RETURN(pipeline::RunRecord record,
                           registry_->RegisterRun(project, branch, head));
  RunReport report;
  report.run_id = record.run_id;
  LogInfo(StrCat("run ", record.run_id, " started on '", branch, "' (",
                 project.nodes().size(), " nodes, ",
                 options.fused ? "fused" : "naive", ")"));

  // Fig. 4: nothing the run writes is referenced until it publishes, so a
  // failed run leaves no ref to clean up.
  auto fail = [&](const std::string& why) -> Result<RunReport> {
    BAUPLAN_RETURN_NOT_OK(
        registry_->FinishRun(record, StrCat("failed: ", why)));
    report.status = StrCat("failed: ", why);
    report.merged = false;
    report.metrics = metrics_->Snapshot();
    LogWarning(StrCat("run ", report.run_id, " failed: ", why));
    Audit("run", branch, StrCat("run ", report.run_id, " failed"),
          Status::FailedPrecondition(why));
    return report;
  };

  if (!dag.ok()) return fail(dag.status().ToString());

  // Same platform defaulting queries get: node bodies report exec.*
  // metrics here, and operator spills flow through the metered spill
  // store unless the caller routed them elsewhere.
  PipelineRunOptions wired = options;
  wired.exec.metrics = metrics_.get();
  if (wired.exec.spill_store == nullptr) {
    wired.exec.spill_store = spill_store_.get();
  }
  CacheLedger ledger;
  auto execution = runner_->Execute(*dag, pinned, wired, &metadata, &ledger);
  if (!execution.ok()) return fail(execution.status().ToString());
  // The runner produced the execution half of the report; keep the
  // identity fields the facade already filled in.
  execution->run_id = report.run_id;
  report = std::move(*execution);

  if (!report.all_expectations_passed) {
    std::string details;
    for (const auto& node : report.nodes) {
      if (node.kind == pipeline::NodeKind::kExpectation &&
          !node.expectation_passed) {
        if (!details.empty()) details += "; ";
        details += StrCat(node.name, ": ", node.details);
      }
    }
    return fail(StrCat("expectations failed (", details, ")"));
  }

  // Audit passed: publish the artifacts as one commit onto the pinned
  // head (a fast-forward of `branch` unless it moved), memoizing what
  // the run computed as it goes.
  const uint64_t publish_start = fork_clock_->NowMicros();
  Result<catalog::MergeResult> merged =
      MaterializeArtifacts(report, ledger, pinned, metadata, branch);
  report.publish_micros = fork_clock_->NowMicros() - publish_start;
  if (!merged.ok()) return fail(merged.status().ToString());
  // Record which nodes the artifact cache served, so a later
  // `bauplan run --run-id N` can say what this run skipped.
  std::vector<std::string> cached_nodes;
  for (const auto& node : report.nodes) {
    if (node.cache_hit) cached_nodes.push_back(node.name);
  }
  BAUPLAN_RETURN_NOT_OK(registry_->FinishRun(record, "succeeded",
                                             merged->commit_id,
                                             cached_nodes));
  report.merged = true;
  report.merged_commit_id = merged->commit_id;
  report.status = "succeeded";
  report.metrics = metrics_->Snapshot();
  LogInfo(StrCat("run ", report.run_id, " merged into '", branch,
                 "' at commit ", merged->commit_id));
  std::vector<std::string> tables;
  for (const auto& [name, table] : report.artifacts) tables.push_back(name);
  Audit("run", branch,
        StrCat("run ", report.run_id, " fingerprint ", record.fingerprint,
               " tables ", StrJoin(tables, ",")),
        Status::OK());
  return report;
}

Result<RunReport> Bauplan::ReplayRun(int64_t run_id,
                                     const std::string& selector) {
  BAUPLAN_ASSIGN_OR_RETURN(pipeline::RunRecord record,
                           registry_->GetRun(run_id));
  BAUPLAN_ASSIGN_OR_RETURN(pipeline::PipelineProject project,
                           registry_->GetRunProject(run_id));

  // Sandboxed: the replay reads the run's result commit (which holds
  // the materialized artifacts a partial replay reads), or the input
  // commit for runs that never merged, and writes nothing to the catalog.
  const std::string& pin = record.result_commit_id.empty()
                               ? record.data_commit_id
                               : record.result_commit_id;
  const catalog::PinnedTables tables = catalog_->PinCommit(pin);
  BAUPLAN_RETURN_NOT_OK(tables.tables().status());
  std::set<std::string> known;
  for (const auto& [name, key] : *tables.tables()) known.insert(name);

  BAUPLAN_ASSIGN_OR_RETURN(pipeline::Dag dag,
                           pipeline::Dag::Build(project, known));

  PipelineRunOptions options;
  options.exec.metrics = metrics_.get();
  options.exec.spill_store = spill_store_.get();
  if (!selector.empty()) {
    BAUPLAN_ASSIGN_OR_RETURN(pipeline::ReplaySelector parsed,
                             pipeline::ReplaySelector::Parse(selector));
    if (parsed.include_descendants) {
      BAUPLAN_ASSIGN_OR_RETURN(options.selected,
                               dag.DescendantsOf(parsed.node));
    } else {
      if (!dag.HasNode(parsed.node)) {
        return Status::NotFound(
            StrCat("no node named '", parsed.node, "' in run ", run_id));
      }
      options.selected = {parsed.node};
    }
  }

  BAUPLAN_ASSIGN_OR_RETURN(RunReport report,
                           runner_->Execute(dag, tables, options));
  report.run_id = run_id;
  report.merged = false;  // replays never touch user branches
  report.status = report.all_expectations_passed
                      ? "replayed"
                      : "replayed (expectations failed)";
  report.metrics = metrics_->Snapshot();
  Audit("replay", record.branch,
        StrCat("run ", run_id, selector.empty() ? "" : " -m ", selector),
        Status::OK());
  return report;
}

}  // namespace bauplan::core
