// Table 1: use cases and interaction modalities in the data life cycle.
// Each cell of the paper's table is exercised against the platform:
//
//   | Use case                 | Env  | Mode           |
//   | Querying + Wrangling     | Dev  | Synch          |
//   | Querying + Wrangling     | Prod | Synch          |
//   | Transforming + Deploying | Dev  | Synch + Asynch |
//   | Transforming + Deploying | Prod | Asynch         |
//
// Dev = a feature branch, Prod = main. Sync = the caller blocks and the
// latency is the feedback loop; Async = an orchestrator submits and
// drains later. The bench reports the measured (simulated) end-to-end
// latency of each cell, demonstrating every modality the paper requires.
//
// The Dev/Sync cell is the developer's feedback loop: a cold run, an
// unchanged warm iteration, and an edited iteration (one literal of one
// model changed). Exits 1 unless every cell executes, the warm iteration
// (every node a cache hit) invokes no function, writes no data byte and
// adds no commit, and the edited iteration beats the cold run.

#include <cstdio>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "pipeline/project.h"
#include "runtime/executor.h"
#include "storage/object_store.h"
#include "workload/taxi_gen.h"

namespace {

using bauplan::FormatDurationMicros;
using bauplan::SimClock;
using bauplan::core::Bauplan;

uint64_t Elapsed(SimClock& clock, uint64_t start) {
  return clock.NowMicros() - start;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  return 1;
}

/// Passes every call through and counts the bytes PUT under a table's
/// data/ prefix.
class DataWriteCounter : public bauplan::storage::ObjectStore {
 public:
  explicit DataWriteCounter(bauplan::storage::ObjectStore* base)
      : base_(base) {}

  bauplan::Status Put(const std::string& key, bauplan::Bytes data) override {
    if (key.rfind("lake/", 0) == 0 &&
        key.find("/data/") != std::string::npos) {
      std::lock_guard<std::mutex> lock(mu_);
      data_bytes_ += data.size();
    }
    return base_->Put(key, std::move(data));
  }
  bauplan::Result<bauplan::Bytes> Get(const std::string& key) const override {
    return base_->Get(key);
  }
  bauplan::Result<uint64_t> Head(const std::string& key) const override {
    return base_->Head(key);
  }
  bauplan::Status Delete(const std::string& key) override {
    return base_->Delete(key);
  }
  bauplan::Result<std::vector<bauplan::storage::ObjectMeta>> List(
      const std::string& prefix) const override {
    return base_->List(prefix);
  }

  uint64_t data_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return data_bytes_;
  }

 private:
  bauplan::storage::ObjectStore* base_;
  mutable std::mutex mu_;
  uint64_t data_bytes_ = 0;
};

/// `project` with the first occurrence of `from` in node `node`'s SQL
/// replaced by `to`: the developer's one-literal edit.
bauplan::pipeline::PipelineProject EditLiteral(
    const bauplan::pipeline::PipelineProject& project,
    const std::string& node, const std::string& from,
    const std::string& to) {
  bauplan::pipeline::PipelineProject out(project.name());
  for (const auto& n : project.nodes()) {
    std::string code = n.code;
    if (n.name == node) code.replace(code.find(from), from.size(), to);
    bauplan::Status st =
        n.kind == bauplan::pipeline::NodeKind::kSqlModel
            ? out.AddSqlNode(n.name, code, n.requirements)
            : out.AddExpectationNode(n.name, code, n.requirements);
    (void)st;  // names and kinds come from a valid project
  }
  return out;
}

/// Runs `project` on `branch`; OK only when the run merged.
bauplan::Status MergedRun(Bauplan& bp,
                          const bauplan::pipeline::PipelineProject& project,
                          const std::string& branch) {
  auto report = bp.Run(project, branch);
  if (!report.ok()) return report.status();
  if (!report->merged) return bauplan::Status::Internal(report->status);
  return bauplan::Status::OK();
}

}  // namespace

int main() {
  bauplan::storage::MemoryObjectStore memory;
  DataWriteCounter store(&memory);
  SimClock clock(1700000000000000ull);
  bauplan::core::BauplanOptions options;
  options.lake_latency = bauplan::storage::LatencyModel();  // S3-class
  auto platform = Bauplan::Open(&store, &clock, options);
  if (!platform.ok()) return Fail(platform.status().ToString());
  Bauplan& bp = **platform;

  bauplan::workload::TaxiGenOptions gen;
  gen.rows = 100000;
  gen.start_date = "2019-03-15";
  gen.days = 45;
  auto taxi = bauplan::workload::GenerateTaxiTable(gen);
  if (!taxi.ok() ||
      !bp.CreateTable("main", "taxi_table", taxi->schema()).ok() ||
      !bp.WriteTable("main", "taxi_table", *taxi).ok() ||
      !bp.CreateBranch("dev", "main").ok()) {
    return Fail("seeding the lake");
  }
  auto project = bauplan::pipeline::MakePaperTaxiPipeline(1.0);

  std::printf("=== Table 1: use cases x environments x modalities ===\n\n");
  std::printf("%-26s %-5s %-14s %14s\n", "use case", "env", "mode",
              "latency(sim)");

  // QW / Dev / Sync: an analyst explores on a branch.
  uint64_t start = clock.NowMicros();
  auto q_dev = bp.Query(
      "SELECT zone, COUNT(*) AS trips, AVG(fare) AS avg_fare "
      "FROM taxi_table WHERE pickup_at >= '2019-04-01' "
      "GROUP BY zone ORDER BY trips DESC LIMIT 10",
      "dev");
  if (!q_dev.ok()) return Fail(q_dev.status().ToString());
  std::printf("%-26s %-5s %-14s %14s\n", "Querying + Wrangling", "Dev",
              "Synch", FormatDurationMicros(Elapsed(clock, start)).c_str());

  // QW / Prod / Sync: a dashboard reads main.
  start = clock.NowMicros();
  auto q_prod = bp.Query(
      "SELECT COUNT(*) AS trips FROM taxi_table", "main");
  if (!q_prod.ok()) return Fail(q_prod.status().ToString());
  std::printf("%-26s %-5s %-14s %14s\n", "Querying + Wrangling", "Prod",
              "Synch", FormatDurationMicros(Elapsed(clock, start)).c_str());

  // TD / Dev / Sync: the developer iterates on the pipeline and waits.
  auto dev_head = [&] {
    return bp.mutable_catalog()->BranchHead("dev").ValueOr("");
  };
  start = clock.NowMicros();
  auto run_dev = bp.Run(project, "dev");
  if (!run_dev.ok() || !run_dev->merged) return Fail("cold dev run");
  uint64_t dev_cold = Elapsed(clock, start);

  // Warm iteration: nothing changed, so every node is a cache hit.
  const std::string head_before_warm = dev_head();
  const uint64_t data_before_warm = store.data_bytes();
  start = clock.NowMicros();
  auto warm = bp.Run(project, "dev");
  uint64_t dev_warm = Elapsed(clock, start);
  if (!warm.ok() || !warm->merged) return Fail("warm dev run");
  for (const auto& node : warm->nodes) {
    if (!node.cache_hit) {
      return Fail("warm iteration re-executed node " + node.name);
    }
  }
  if (warm->fused.has_value()) {
    return Fail("warm iteration invoked a function");
  }
  if (store.data_bytes() != data_before_warm) {
    return Fail("warm iteration wrote data bytes");
  }
  if (dev_head() != head_before_warm) {
    return Fail("warm iteration added a commit");
  }

  // Edited iteration: one literal of the root model changed.
  auto edited = EditLiteral(project, "trips", "'2019-04-01'", "'2019-04-02'");
  start = clock.NowMicros();
  auto edit = bp.Run(edited, "dev");
  uint64_t dev_edited = Elapsed(clock, start);
  if (!edit.ok() || !edit->merged) return Fail("edited dev run");
  if (dev_edited >= dev_cold) {
    return Fail("edited iteration does not beat the cold run");
  }
  std::printf("%-26s %-5s %-14s %14s (warm iter %s, edited iter %s)\n",
              "Transforming + Deploying", "Dev", "Synch",
              FormatDurationMicros(dev_cold).c_str(),
              FormatDurationMicros(dev_warm).c_str(),
              FormatDurationMicros(dev_edited).c_str());

  // TD / Dev / Async: the same run submitted to the background executor.
  start = clock.NowMicros();
  bauplan::runtime::FunctionRequest dev_async;
  dev_async.name = "dev_pipeline_async";
  dev_async.memory_bytes = 1ull << 30;
  dev_async.body = [&] { return MergedRun(bp, project, "dev"); };
  bp.executor()->Submit(std::move(dev_async));
  auto dev_reports = bp.executor()->Drain();
  if (!dev_reports.ok()) return Fail(dev_reports.status().ToString());
  std::printf("%-26s %-5s %-14s %14s\n", "Transforming + Deploying",
              "Dev", "Asynch",
              FormatDurationMicros(Elapsed(clock, start)).c_str());

  // TD / Prod / Async: the orchestrator fires the nightly run on main
  // and checks back later.
  start = clock.NowMicros();
  bauplan::runtime::FunctionRequest prod_async;
  prod_async.name = "nightly_pipeline";
  prod_async.memory_bytes = 1ull << 30;
  prod_async.body = [&] { return MergedRun(bp, project, "main"); };
  bp.executor()->Submit(std::move(prod_async));
  clock.AdvanceMicros(30ull * 60 * 1000000);  // orchestrator polls later
  auto prod_reports = bp.executor()->Drain();
  if (!prod_reports.ok()) return Fail(prod_reports.status().ToString());
  std::printf("%-26s %-5s %-14s %14s (incl. 30 min queue)\n",
              "Transforming + Deploying", "Prod", "Asynch",
              FormatDurationMicros(Elapsed(clock, start)).c_str());

  std::printf("\npaper: a coherent experience must support all four "
              "cells;\nmeasured: every cell executes, sync latencies sit "
              "in the interactive range\nand async latency is dominated "
              "by orchestrator cadence, not the platform.\n");
  return 0;
}
