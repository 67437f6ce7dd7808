// Section 4.2: the table format's job is to turn WHERE clauses into
// skipped I/O. The bench builds a month-partitioned taxi table from
// several appends (many files with partition values and column stats)
// and sweeps predicates of decreasing selectivity, reporting files
// pruned, bytes skipped, credits, and the simulated scan latency against
// S3-class storage with and without pruning. A scan fetches its manifests
// and then its data files as two concurrent GET batches, so pruning shows
// in bytes read and credits, and latency is set by the slowest connection.
//
// Gates (exit 1 when one fails; the simulated clock is deterministic, so
// both are exact):
//   - the full 7-file scan costs at most 2x the 1-file
//     pickup_at >= '2019-06-01' scan in simulated time, which holds only
//     when a scan's files are fetched concurrently;
//   - the empty-range scan reads no data object.
//
//   bench_scan_planning [--smoke]
//
// `--smoke` runs only the gated cases (wired into ctest).

#include <cstdio>
#include <cstring>

#include "columnar/datetime.h"
#include "common/clock.h"
#include "common/strings.h"
#include "format/predicate.h"
#include "storage/metered_store.h"
#include "storage/object_store.h"
#include "table/table_ops.h"
#include "workload/taxi_gen.h"

namespace {

using bauplan::FormatDurationMicros;
using bauplan::SimClock;
using bauplan::columnar::ParseTimestampString;
using bauplan::columnar::Value;
using bauplan::format::ColumnPredicate;
using bauplan::format::CompareOp;
using bauplan::table::ScanOptions;
using bauplan::table::ScanPlan;
using bauplan::table::TableOps;

}  // namespace

/// The full scan may cost at most this many times the 1-file scan.
constexpr double kMaxFullScanRatio = 2.0;

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  bauplan::storage::MemoryObjectStore backing;
  SimClock clock(1700000000000000ull);
  bauplan::storage::MeteredObjectStore store(
      &backing, &clock, bauplan::storage::LatencyModel());
  TableOps ops(&store, &clock);

  // A table partitioned by month(pickup_at), loaded with six monthly
  // appends of 50k rows each.
  bauplan::table::PartitionSpec spec(
      {{"pickup_at", bauplan::table::Transform::kMonth, 0}});
  bauplan::workload::TaxiGenOptions gen;
  gen.rows = 50000;
  gen.days = 30;
  auto schema = bauplan::workload::GenerateTaxiTable(gen)->schema();
  auto key = ops.CreateTable("taxi_table", schema, spec);
  if (!key.ok()) return 1;
  std::string metadata_key = *key;
  const char* months[] = {"2019-01-01", "2019-02-01", "2019-03-01",
                          "2019-04-01", "2019-05-01", "2019-06-01"};
  uint64_t seed = 1;
  for (const char* month : months) {
    gen.start_date = month;
    gen.seed = seed++;
    auto data = bauplan::workload::GenerateTaxiTable(gen);
    auto next = ops.Append(metadata_key, *data);
    if (!next.ok()) return 1;
    metadata_key = *next;
  }
  auto metadata = ops.LoadMetadata(metadata_key);
  if (!metadata.ok()) return 1;
  auto snapshot = metadata->CurrentSnapshot();
  if (!snapshot.ok()) return 1;
  // A scan GETs the metadata object, then each manifest, then data files.
  const int64_t non_data_gets =
      1 + static_cast<int64_t>(snapshot->manifest_keys.size());

  std::printf("=== Section 4.2: partition pruning + zone-map skipping "
              "===\n\n");
  std::printf("table: 300k rows over 6 monthly partitions, spec = %s\n\n",
              spec.ToString().c_str());
  std::printf("%-44s | %5s %6s %6s | %10s %9s %12s\n", "predicate",
              "files", "pruned", "rows", "bytes read", "credits",
              "latency(sim)");

  enum class Gate { kNone, kFull, kOneFile, kEmpty };
  struct Case {
    const char* label;
    std::vector<ColumnPredicate> predicates;
    Gate gate = Gate::kNone;
  };
  std::vector<Case> cases;
  cases.push_back({"(none: full scan)", {}, Gate::kFull});
  cases.push_back(
      {"pickup_at >= '2019-06-01'",
       {{"pickup_at", CompareOp::kGe,
         Value::Timestamp(*ParseTimestampString("2019-06-01"))}},
       Gate::kOneFile});
  cases.push_back(
      {"pickup_at >= '2019-04-01'",
       {{"pickup_at", CompareOp::kGe,
         Value::Timestamp(*ParseTimestampString("2019-04-01"))}}});
  cases.push_back(
      {"'2019-03-01' <= pickup_at < '2019-04-01'",
       {{"pickup_at", CompareOp::kGe,
         Value::Timestamp(*ParseTimestampString("2019-03-01"))},
        {"pickup_at", CompareOp::kLt,
         Value::Timestamp(*ParseTimestampString("2019-04-01"))}}});
  cases.push_back(
      {"pickup_at >= '2020-01-01' (empty)",
       {{"pickup_at", CompareOp::kGe,
         Value::Timestamp(*ParseTimestampString("2020-01-01"))}},
       Gate::kEmpty});
  cases.push_back(
      {"trip_id <= 1000 (ranges overlap: no pruning)",
       {{"trip_id", CompareOp::kLe, Value::Int64(1000)}}});

  uint64_t full_micros = 0;
  uint64_t one_file_micros = 0;
  bool ok = true;
  for (const auto& test_case : cases) {
    if (smoke && test_case.gate == Gate::kNone) continue;
    ScanOptions options;
    options.predicates = test_case.predicates;
    ScanPlan plan;
    store.ResetMetrics();
    uint64_t start = clock.NowMicros();
    auto result = ops.ScanTable(metadata_key, options, &plan);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    uint64_t elapsed = clock.NowMicros() - start;
    bauplan::storage::StoreMetrics io = store.metrics();
    std::printf("%-44s | %5lld %6lld %6lld | %10s %9.3g %12s\n",
                test_case.label,
                static_cast<long long>(plan.files_total),
                static_cast<long long>(plan.files_pruned_by_partition +
                                       plan.files_pruned_by_stats),
                static_cast<long long>(result->num_rows()),
                bauplan::FormatBytes(static_cast<uint64_t>(io.bytes_read))
                    .c_str(),
                io.credits, FormatDurationMicros(elapsed).c_str());
    switch (test_case.gate) {
      case Gate::kFull:
        full_micros = elapsed;
        break;
      case Gate::kOneFile:
        one_file_micros = elapsed;
        if (plan.files.size() != 1) {
          std::fprintf(stderr, "FAIL: '%s' reads %zu files, expected 1\n",
                       test_case.label, plan.files.size());
          ok = false;
        }
        break;
      case Gate::kEmpty:
        if (io.gets != non_data_gets) {
          std::fprintf(stderr, "FAIL: '%s' read %lld data objects\n",
                       test_case.label,
                       static_cast<long long>(io.gets - non_data_gets));
          ok = false;
        }
        break;
      case Gate::kNone:
        break;
    }
  }
  double ratio = static_cast<double>(full_micros) /
                 static_cast<double>(one_file_micros);
  std::printf("\nfull scan / 1-file scan (sim): %.2fx (bound %.1fx)\n",
              ratio, kMaxFullScanRatio);
  if (ratio > kMaxFullScanRatio) {
    std::fprintf(stderr,
                 "FAIL: the full scan costs %.2fx the 1-file scan (bound "
                 "%.1fx): its files are not fetched concurrently\n",
                 ratio, kMaxFullScanRatio);
    ok = false;
  }

  std::printf("\npaper:    every command over taxi_table resolves through "
              "table metadata; the\n          WHERE pushdown of 4.4.2 "
              "rides on exactly this pruning\nmeasured: selective "
              "predicates skip most files without opening them; the\n"
              "          empty-range scan touches no data objects at "
              "all; the files a\n          scan keeps are fetched "
              "concurrently, so its latency is set by its\n          "
              "slowest connection and pruning shows in bytes and "
              "credits.\n");
  return ok ? 0 : 1;
}
