// Section 4.3 (Fig. 4): the transform-audit-write pattern is only viable
// if git-for-data operations are cheap next to compute. The bench
// measures the full branch lifecycle (create ephemeral branch, commit
// artifacts into it, merge back, delete) against catalogs of growing
// size and growing history, on both the simulated S3 clock and real
// wall time.
//
// Gate: the simulated cycle on a main with 1000 prior commits must cost
// at most 1.1x the cycle on a 2-commit main, at every table count. A
// fast-forward merge reads only the run branch's own commits, so history
// length must not show up in the cycle at all. The simulated clock is
// deterministic, so the gate is exact. Exits 1 when it fails.
//
//   bench_catalog_ops [--smoke]
//
// `--smoke` sweeps only the small table counts (wired into ctest).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/strings.h"
#include "storage/metered_store.h"
#include "storage/object_store.h"

namespace {

using bauplan::FormatDurationMicros;
using bauplan::SimClock;
using bauplan::catalog::Catalog;
using bauplan::catalog::TableChanges;

constexpr int kShortHistory = 2;
constexpr int kLongHistory = 1000;
constexpr double kMaxHistoryGrowth = 1.1;

uint64_t WallMicrosNow() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct CycleCost {
  uint64_t sim_cycle = 0;
  uint64_t sim_commit = 0;
  uint64_t wall_cycle = 0;
};

/// One transform-audit-write cycle on a fresh catalog whose main holds
/// `tables` tables and `history` commits (root and seed included).
std::optional<CycleCost> MeasureCycle(int tables, int history) {
  bauplan::storage::MemoryObjectStore backing;
  SimClock clock(1700000000000000ull);
  bauplan::storage::MeteredObjectStore store(
      &backing, &clock, bauplan::storage::LatencyModel());
  auto catalog = Catalog::Open(&store, &clock);
  if (!catalog.ok()) return std::nullopt;

  // Populate the catalog.
  TableChanges seed;
  for (int i = 0; i < tables; ++i) {
    seed.puts[bauplan::StrCat("table_", i)] =
        bauplan::StrCat("meta/table_", i, "/v1");
  }
  if (!catalog->CommitChanges("main", "seed", "bench", seed).ok()) {
    return std::nullopt;
  }
  // Grow history. Each commit repoints table_0 between two keys of equal
  // length, so every history length leaves commits of the same size and
  // only the chain length differs.
  for (int i = kShortHistory; i < history; ++i) {
    TableChanges update;
    update.puts["table_0"] =
        bauplan::StrCat("meta/table_0/v", i % 2 == 0 ? 2 : 1);
    if (!catalog->CommitChanges("main", "history", "bench", update).ok()) {
      return std::nullopt;
    }
  }

  // One transform-audit-write cycle: ephemeral branch, two artifact
  // commits, merge, delete (exactly the Fig. 4 flow).
  CycleCost cost;
  uint64_t sim_start = clock.NowMicros();
  uint64_t wall_start = WallMicrosNow();
  auto run_branch = catalog->CreateEphemeralBranch("main", "run");
  if (!run_branch.ok()) return std::nullopt;
  TableChanges artifact1;
  artifact1.puts["trips"] = "meta/trips/v1";
  uint64_t commit_start = clock.NowMicros();
  if (!catalog->CommitChanges(*run_branch, "trips", "bench", artifact1)
           .ok()) {
    return std::nullopt;
  }
  cost.sim_commit = clock.NowMicros() - commit_start;
  TableChanges artifact2;
  artifact2.puts["pickups"] = "meta/pickups/v1";
  if (!catalog->CommitChanges(*run_branch, "pickups", "bench", artifact2)
           .ok()) {
    return std::nullopt;
  }
  auto merged = catalog->Merge(*run_branch, "main", "bench");
  if (!merged.ok() || !merged->fast_forward) return std::nullopt;
  if (!catalog->DeleteBranch(*run_branch).ok()) return std::nullopt;
  cost.sim_cycle = clock.NowMicros() - sim_start;
  cost.wall_cycle = WallMicrosNow() - wall_start;
  return cost;
}

}  // namespace

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

  std::printf("=== Section 4.3: transform-audit-write cycle cost ===\n\n");
  std::printf("%8s %8s | %14s %14s | %12s\n", "tables", "history",
              "cycle(sim S3)", "commit(sim)", "cycle(wall)");

  // Every table count at every history length, plus the largest catalog
  // at the short history only (its 1000-commit chain would hold ~175 MB
  // of commit objects in memory).
  std::vector<std::pair<int, int>> grid;
  for (int tables : smoke ? std::vector<int>{10, 100}
                          : std::vector<int>{10, 100, 1000}) {
    for (int history : {kShortHistory, 100, kLongHistory}) {
      grid.emplace_back(tables, history);
    }
  }
  if (!smoke) grid.emplace_back(5000, kShortHistory);

  std::map<int, uint64_t> short_cycle;  // tables -> sim cycle at 2 commits
  bool ok = true;
  for (const auto& [tables, history] : grid) {
    std::optional<CycleCost> cost = MeasureCycle(tables, history);
    if (!cost.has_value()) {
      std::fprintf(stderr, "FAIL: cycle errored at %d tables, %d commits\n",
                   tables, history);
      return 1;
    }
    std::printf("%8d %8d | %14s %14s | %12s\n", tables, history,
                FormatDurationMicros(cost->sim_cycle).c_str(),
                FormatDurationMicros(cost->sim_commit).c_str(),
                FormatDurationMicros(cost->wall_cycle).c_str());
    if (history == kShortHistory) short_cycle[tables] = cost->sim_cycle;
    if (history == kLongHistory) {
      double growth = static_cast<double>(cost->sim_cycle) /
                      static_cast<double>(short_cycle.at(tables));
      if (growth > kMaxHistoryGrowth) {
        std::fprintf(stderr,
                     "FAIL: at %d tables the cycle costs %.2fx at %d "
                     "commits vs %d (bound %.1fx)\n",
                     tables, growth, kLongHistory, kShortHistory,
                     kMaxHistoryGrowth);
        ok = false;
      }
    }
  }

  std::printf("\npaper:    every run lives in an ephemeral branch; the "
              "versioning machinery\n          must be negligible next "
              "to compute\nmeasured: a full cycle costs a handful of "
              "object-store round trips (sub-second\n          even on "
              "S3 latencies), flat-ish in catalog size and flat in "
              "history\n          length (a fast-forward merge reads only "
              "the run branch's commits).\n");
  return ok ? 0 : 1;
}
