// lakebench: the lakehouse benchmark. One process, one closed-loop client
// driving core::Bauplan over an in-memory lake on the S3-class latency
// model, on one of three workloads shaped after the paper's Table 1.
//
//   lakebench --workload analyst_queries|pipeline_devloop|nightly_refresh
//             --seed N --seconds S --trace 0|1 [--small]
//             [--inject-wrong-result]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// sessions twice, untraced then traced, and prints the per-layer split.
// Wall latencies per op are taken at each op's best repeat across the
// sessions, and are per-layer metrics.
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the line before it is the full report (seed, host, sizes, per-call
// latencies). Exit status 1 when any op failed or any result was wrong,
// 2 on a usage error.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "lake.h"
#include "stats.h"
#include "workloads.h"

namespace lakebench {
namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr uint64_t kClockStart = 1700000000000000ull;
// Set-ups a run times at least, and the least time they span: a quick
// set-up (nightly_refresh's takes under 0.1 s) is repeated until the
// median covers a couple of seconds, not one burst of host noise.
constexpr int kMinSetups = 9;
constexpr double kMinSetupSeconds = 2.0;
// Untraced sessions a traced run measures at least, so every op's best
// wall time (the per-layer core.op_wall_* metrics) is a least over at
// least this many repeats. Two keeps a traced analyst_queries run, which
// then replays one traced session, well inside three minutes on a host
// running at half speed.
constexpr int kMinSessions = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool inject_wrong_result = false;
};

/// Every op of one pass, and the checks that ran on it.
struct Pass {
  std::vector<double> op_wall_ms;    // every op of every session, in order
  std::vector<double> first_sim_ms;  // ops of the first session
  std::vector<Call> calls;           // every facade call of every session
  std::vector<Call> first_calls;     // facade calls of the first session
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string why;
  int sessions = 0;
  bool sim_repeatable = true;
  double credits = 0;          // first session
  uint64_t stored_bytes = 0;   // lake bytes after the first session
};

double Seconds(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Replays whole sessions from the warm lake until `seconds` have passed
/// and at least `min_sessions` ran (or exactly `sessions` of them when
/// nonzero). Every session starts from the same bytes and clock, so its
/// simulated timings repeat.
Pass RunPass(Workload& workload, const bauplan::storage::MemoryObjectStore& warm,
             uint64_t clock_start, double seconds, int min_sessions,
             int sessions, LayerTally* tally, bool verify) {
  Pass pass;
  auto start = SteadyClock::now();
  for (int s = 0;; ++s) {
    // Hand the previous session's lake back to the OS, so the peak
    // resident size is one session's, not the heap's fragmentation.
    malloc_trim(0);
    auto client = Client::Open(warm, clock_start, tally);
    if (!client.ok()) {
      pass.attempted += workload.session_ops();
      pass.failed += workload.session_ops();
      pass.why += "cannot open platform: " + client.status().ToString() + "; ";
      break;
    }
    Client& c = **client;
    StorageTotals storage_before;
    if (c.probe() != nullptr) storage_before = c.probe()->totals();
    auto metrics_before = c.platform().metrics_snapshot();
    double credits_before = c.platform().lake_metrics().credits;
    std::vector<double> sims;
    for (int64_t i = 0; i < workload.session_ops(); ++i) {
      bool ok = workload.RunOp(c, i);
      double wall = 0, sim = 0;
      for (const Call& call : c.calls) {
        wall += call.wall_ms;
        sim += call.sim_ms;
      }
      pass.op_wall_ms.push_back(wall);
      sims.push_back(sim);
      pass.calls.insert(pass.calls.end(), c.calls.begin(), c.calls.end());
      if (s == 0) {
        pass.first_calls.insert(pass.first_calls.end(), c.calls.begin(),
                                c.calls.end());
      }
      c.calls.clear();
      ++pass.attempted;
      if (!ok) {
        ++pass.failed;
        pass.why += bauplan::StrCat("op ", i, " of session ", s, " failed; ");
      }
      if (tally != nullptr) {
        ++tally->ops;
        tally->op_wall_ns += static_cast<int64_t>(wall * 1e6);
      }
    }
    if (tally != nullptr) {
      StorageTotals storage = c.probe()->totals() - storage_before;
      for (size_t k = 0; k < storage.by_class.size(); ++k) {
        tally->storage.by_class[k] += storage.by_class[k];
      }
      auto after = c.platform().metrics_snapshot();
      auto delta = [&](const char* name) {
        return after.Get(name) - metrics_before.Get(name);
      };
      tally->cache_hits += delta("cache.hits");
      tally->cache_misses += delta("cache.misses");
      tally->cache_inserts += delta("cache.inserts");
      tally->cache_skipped += delta("cache.skipped_invocations");
      tally->rows_scanned += delta("exec.rows_scanned");
      tally->morsels += delta("exec.morsels");
      tally->morsels_scheduled += delta("exec.morsels_scheduled");
      tally->peak_bytes = std::max(tally->peak_bytes, after.Get("exec.peak_bytes"));
    }
    if (s == 0) {
      pass.first_sim_ms = sims;
      pass.credits = c.platform().lake_metrics().credits - credits_before;
      pass.stored_bytes = c.lake().total_bytes();
      if (verify) {
        int64_t wrong = workload.Verify(c, warm, clock_start, &pass.why);
        pass.failed = std::min(pass.attempted, pass.failed + wrong);
      }
    } else if (sims != pass.first_sim_ms) {
      pass.sim_repeatable = false;
    }
    pass.sessions = s + 1;
    bool more = sessions > 0 ? pass.sessions < sessions
                             : pass.sessions < min_sessions ||
                                   Seconds(start) < seconds;
    if (!more) break;
  }
  return pass;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// Each op's least wall time over the sessions that ran it. Every session
/// repeats the same ops on the same bytes, so the spread between repeats
/// is interference from the rest of the host, which only ever adds time;
/// the least repeat is the estimate it disturbs least.
std::vector<double> BestPerOp(const std::vector<double>& op_wall_ms,
                              int64_t session_ops) {
  const size_t n = std::min(static_cast<size_t>(session_ops), op_wall_ms.size());
  std::vector<double> best(op_wall_ms.begin(), op_wall_ms.begin() + n);
  for (size_t k = best.size(); k < op_wall_ms.size(); ++k) {
    double& b = best[k % best.size()];
    b = std::min(b, op_wall_ms[k]);
  }
  return best;
}

double OpsPerSecond(const std::vector<double>& op_wall_ms) {
  double total_s = 0;
  for (double w : op_wall_ms) total_s += w / 1e3;
  return Ratio(static_cast<double>(op_wall_ms.size()), total_s);
}

std::vector<double> Select(const std::vector<Call>& calls, CallType type,
                           bool sim) {
  std::vector<double> out;
  for (const Call& c : calls) {
    if (c.type == type) out.push_back(sim ? c.sim_ms : c.wall_ms);
  }
  return out;
}

void AddMetric(JsonObject* metrics, const std::string& name, double value,
               const char* unit) {
  metrics->AddRaw(name, JsonObject().Add("value", value).Add("unit", unit).ToString());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Every end-to-end metric but set-up time is host-independent: the sim
/// figures repeat exactly, so the first session stands for all of them.
JsonObject EndToEnd(const Pass& pass, double setup_s, uint64_t input_bytes,
                    int64_t session_ops) {
  JsonObject m;
  AddMetric(&m, "setup_s", setup_s, "s");
  AddMetric(&m, "op_sim_p50_ms", Percentile(pass.first_sim_ms, 50), "ms");
  AddMetric(&m, "op_sim_p90_ms", Percentile(pass.first_sim_ms, 90), "ms");
  AddMetric(&m, "ops_per_sim_s", OpsPerSecond(pass.first_sim_ms), "1/s");
  AddMetric(&m, "credits_per_op",
            Ratio(pass.credits, static_cast<double>(session_ops)), "credits");
  AddMetric(&m, "stored_bytes_per_input_byte",
            Ratio(static_cast<double>(pass.stored_bytes),
                  static_cast<double>(input_bytes)),
            "ratio");
  AddMetric(&m, "peak_rss_mb", PeakRssMb(), "MiB");
  return m;
}

/// Measured latency and throughput per op, each op at its best repeat
/// (BestPerOp), from the untraced pass.
void AddOpWallMetrics(JsonObject* m, const Pass& untraced, int64_t session_ops) {
  const std::vector<double> best = BestPerOp(untraced.op_wall_ms, session_ops);
  AddMetric(m, "core.op_wall_p50_ms", Percentile(best, 50), "ms");
  AddMetric(m, "core.op_wall_p90_ms", Percentile(best, 90), "ms");
  AddMetric(m, "core.ops_per_wall_s", OpsPerSecond(best), "1/s");
}

/// Facade-call latencies by type: wall from the untraced pass, sim from
/// its first session.
void AddCallMetrics(JsonObject* m, const Pass& untraced) {
  struct Kind {
    CallType type;
    const char* name;
    bool tail;
  };
  for (const Kind& k : {Kind{CallType::kQuery, "query", true},
                        Kind{CallType::kRun, "run", false},
                        Kind{CallType::kWrite, "write", false}}) {
    auto wall = Select(untraced.calls, k.type, false);
    auto sim = Select(untraced.first_calls, k.type, true);
    AddMetric(m, bauplan::StrCat("core.", k.name, "_wall_p50_ms"), Median(wall), "ms");
    AddMetric(m, bauplan::StrCat("core.", k.name, "_sim_p50_ms"), Median(sim), "ms");
    if (k.tail) {
      AddMetric(m, bauplan::StrCat("core.", k.name, "_wall_p95_ms"),
                Percentile(wall, 95), "ms");
      AddMetric(m, bauplan::StrCat("core.", k.name, "_sim_p95_ms"),
                Percentile(sim, 95), "ms");
    }
  }
}

JsonObject PerLayer(const LayerTally& t, const Pass& untraced,
                    const Pass& traced, int64_t session_ops) {
  const double ops = static_cast<double>(t.ops);
  const double runs = static_cast<double>(t.runs);
  const double scans = static_cast<double>(t.scans);
  const double replays = static_cast<double>(t.replays);
  const StorageCounts all = t.storage.Sum();
  const StorageCounts& refs = t.storage[KeyClass::kCatalogRef];
  const StorageCounts& commits = t.storage[KeyClass::kCatalogCommit];
  auto ms = [](double ns) { return ns / 1e6; };
  JsonObject m;
  AddMetric(&m, "storage.requests_per_op", Ratio(all.requests(), ops), "count");
  AddMetric(&m, "storage.sim_ms_per_op", Ratio(all.sim_us / 1e3, ops), "ms");
  AddMetric(&m, "storage.bytes_read_per_op", Ratio(all.bytes_read, ops), "B");
  AddMetric(&m, "storage.bytes_written_per_op", Ratio(all.bytes_written, ops), "B");
  AddMetric(&m, "storage.wall_ms_per_op", Ratio(ms(all.wall_ns), ops), "ms");
  AddMetric(&m, "catalog.commit_reads_per_op", Ratio(commits.gets, ops), "count");
  AddMetric(&m, "catalog.ref_reads_per_op", Ratio(refs.gets, ops), "count");
  AddMetric(&m, "catalog.storage_sim_frac",
            Ratio(refs.sim_us + commits.sim_us, all.sim_us), "ratio");
  AddMetric(&m, "catalog.resolve_wall_us", Ratio(t.resolve_ns / 1e3, replays), "us");
  AddMetric(&m, "table.files_pruned_frac", Ratio(t.files_pruned, t.files_total), "ratio");
  AddMetric(&m, "table.manifest_reads_per_scan", Ratio(t.manifest_reads, scans), "count");
  AddMetric(&m, "format.data_bytes_per_scan", Ratio(t.data_bytes, scans), "B");
  AddMetric(&m, "format.scan_wall_ms", Ratio(ms(t.scan_ns), scans), "ms");
  AddMetric(&m, "sql.engine_wall_ms", Ratio(ms(t.engine_ns), replays), "ms");
  AddMetric(&m, "sql.rows_scanned_per_row_out", Ratio(t.rows_scanned, t.rows_out), "ratio");
  AddMetric(&m, "sql.peak_bytes", t.peak_bytes, "B");
  AddMetric(&m, "sql.morsel_skip_frac",
            Ratio(t.morsels_scheduled - t.morsels, t.morsels_scheduled), "ratio");
  AddMetric(&m, "sql.plan_sim_ms_per_query",
            Ratio(t.query_plan_sim_us / 1e3, t.queries - t.query_cache_hits), "ms");
  AddMetric(&m, "sql.execute_sim_ms_per_query",
            Ratio(t.query_execute_sim_us / 1e3, t.queries - t.query_cache_hits), "ms");
  AddMetric(&m, "core.query_cache_hit_rate", Ratio(t.query_cache_hits, t.queries), "ratio");
  AddMetric(&m, "core.audit_sim_ms_per_op",
            Ratio(t.storage[KeyClass::kAudit].sim_us / 1e3, ops), "ms");
  AddOpWallMetrics(&m, untraced, session_ops);
  AddCallMetrics(&m, untraced);
  AddMetric(&m, "cache.hit_rate",
            Ratio(t.cache_hits, t.cache_hits + t.cache_misses), "ratio");
  AddMetric(&m, "cache.skipped_invocations_per_run", Ratio(t.cache_skipped, runs), "count");
  AddMetric(&m, "cache.bytes_read_per_run",
            Ratio(t.storage[KeyClass::kCache].bytes_read, runs), "B");
  AddMetric(&m, "cache.inserts_per_run", Ratio(t.cache_inserts, runs), "count");
  AddMetric(&m, "cache.fingerprint_wall_ms", Ratio(ms(t.fingerprint_ns), runs), "ms");
  AddMetric(&m, "runtime.startup_sim_ms_per_run", Ratio(t.startup_us / 1e3, runs), "ms");
  AddMetric(&m, "runtime.queue_sim_ms_per_run", Ratio(t.queue_us / 1e3, runs), "ms");
  AddMetric(&m, "runtime.transfer_sim_ms_per_run", Ratio(t.transfer_us / 1e3, runs), "ms");
  AddMetric(&m, "runtime.body_sim_ms_per_run", Ratio(t.body_us / 1e3, runs), "ms");
  AddMetric(&m, "runtime.cold_starts_per_run", Ratio(t.cold_starts, runs), "count");
  AddMetric(&m, "runtime.spill_bytes_per_run", Ratio(t.spill_bytes, runs), "B");
  AddMetric(&m, "runtime.locality_hit_rate", Ratio(t.locality_hits, t.placed), "ratio");
  AddMetric(&m, "analysis.check_wall_ms", Ratio(ms(t.check_ns), runs), "ms");

  double untraced_wall = 0, traced_wall = 0;
  for (size_t i = traced.first_sim_ms.size(); i < untraced.op_wall_ms.size(); ++i) {
    untraced_wall += untraced.op_wall_ms[i];
  }
  for (double w : traced.op_wall_ms) traced_wall += w;
  // Wall time the split accounts for: storage calls measured inline,
  // plus the non-storage part of each replayed query and pre-flight.
  double attributed_ns = static_cast<double>(all.wall_ns) +
                         static_cast<double>(t.resolve_ns + t.scan_ns + t.engine_ns -
                                             t.replay_storage_ns) +
                         static_cast<double>(t.check_ns + t.fingerprint_ns -
                                             t.preflight_storage_ns);
  AddMetric(&m, "observability.trace_overhead_frac",
            Ratio(traced_wall, untraced_wall) - 1.0, "ratio");
  AddMetric(&m, "observability.unattributed_wall_frac",
            1.0 - Ratio(attributed_ns, static_cast<double>(t.op_wall_ns)), "ratio");
  return m;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "lakebench: %s\nusage: lakebench --workload "
               "analyst_queries|pipeline_devloop|nightly_refresh --seed N "
               "--seconds S --trace 0|1 [--small] [--inject-wrong-result]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  // A fixed mmap threshold (glibc's initial 128 KiB) keeps every large
  // buffer in its own mapping, returned to the OS when freed. Left
  // dynamic, the threshold rises with the first large free, and with
  // nightly_refresh's 4-wide wavefront the thread timing then decides
  // how fragmented the heap gets: on a 4-vCPU x86-64 VM, peak RSS of one
  // seed read 306 or 352 MiB from run to run, 296-298 MiB with it fixed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--small") {
      args.small = true;
    } else if (flag == "--inject-wrong-result") {
      args.inject_wrong_result = true;
    } else if (flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
               flag == "--trace") {
      const char* v = value();
      if (v == nullptr) return Usage("missing flag value");
      if (flag == "--workload") {
        args.workload = v;
      } else if (flag == "--seed") {
        int64_t n = 0;
        if (!bauplan::ParseInt64(v, &n) || n < 0) return Usage("bad --seed");
        args.seed = static_cast<uint64_t>(n);
      } else if (flag == "--seconds") {
        if (!bauplan::ParseDouble(v, &args.seconds) || args.seconds <= 0) {
          return Usage("bad --seconds");
        }
      } else {
        std::string t = v;
        if (t != "0" && t != "1") return Usage("bad --trace");
        args.trace = t == "1";
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  Sizes sizes = SizesFor(args.workload, args.small);
  auto workload = MakeWorkload(args.workload, args.seed, sizes);
  if (workload == nullptr) return Usage("unknown --workload");
  workload->inject_wrong_result = args.inject_wrong_result;

  // Set-up: generate inputs, load the lake, warm it (first run / first
  // cache fill). Repeated so setup_s is a median; the last lake is kept.
  std::vector<double> setup_s;
  std::unique_ptr<bauplan::storage::MemoryObjectStore> warm;
  uint64_t clock_start = 0;
  uint64_t input_bytes = 0;
  const auto setups_start = SteadyClock::now();
  for (int r = 0; r < kMinSetups || Seconds(setups_start) < kMinSetupSeconds;
       ++r) {
    auto start = SteadyClock::now();
    auto store = std::make_unique<bauplan::storage::MemoryObjectStore>();
    bauplan::SimClock clock(kClockStart);
    auto bp = bauplan::core::Bauplan::Open(store.get(), &clock, PlatformOptions());
    if (!bp.ok()) {
      std::fprintf(stderr, "lakebench: %s\n", bp.status().ToString().c_str());
      return 1;
    }
    auto written = workload->Setup(**bp);
    if (!written.ok()) {
      std::fprintf(stderr, "lakebench: setup failed: %s\n",
                   written.status().ToString().c_str());
      return 1;
    }
    bp->reset();
    setup_s.push_back(Seconds(start));
    warm = std::move(store);
    clock_start = clock.NowMicros();
    input_bytes = *written + workload->SessionInputBytes();
  }

  // With --trace 1 the untraced pass gets half the time; the traced pass
  // then repeats all but the first of its sessions, and the overhead
  // compares the two over those same sessions (the first one also pays
  // for a cold heap).
  Pass untraced = RunPass(*workload, *warm, clock_start,
                          args.trace ? args.seconds / 2 : args.seconds,
                          args.trace ? kMinSessions : 1, 0, nullptr,
                          /*verify=*/true);
  LayerTally tally;
  Pass traced;
  if (args.trace) {
    traced = RunPass(*workload, *warm, clock_start, 0, 1, untraced.sessions - 1,
                     &tally, /*verify=*/false);
    if (traced.first_sim_ms != untraced.first_sim_ms) {
      untraced.sim_repeatable = false;
    }
  }
  int64_t attempted = untraced.attempted + traced.attempted;
  int64_t failed = untraced.failed + traced.failed;
  bool correct = failed == 0;

  JsonObject metrics = args.trace
                           ? PerLayer(tally, untraced, traced,
                                      workload->session_ops())
                           : EndToEnd(untraced, Median(setup_s), input_bytes,
                                      workload->session_ops());

  JsonObject host;
  host.Add("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .Add("build_type", LAKEBENCH_BUILD_TYPE)
      .Add("compiler", __VERSION__);
  auto options = PlatformOptions();
  JsonObject sizes_json = workload->Describe();
  sizes_json.Add("lake_bytes", static_cast<long long>(warm->total_bytes()))
      .Add("input_bytes", static_cast<long long>(input_bytes))
      .Add("query_cache_budget_bytes", static_cast<long long>(options.query_cache_bytes))
      .Add("artifact_cache_budget_bytes",
           static_cast<long long>(options.artifact_cache_bytes));
  std::string setups;
  for (double s : setup_s) setups += (setups.empty() ? "" : ",") + std::to_string(s);
  // Wall seconds of each untraced session, in the order they ran.
  std::string session_walls;
  const size_t per_session = static_cast<size_t>(workload->session_ops());
  for (size_t k = 0; k < untraced.op_wall_ms.size(); k += per_session) {
    double sum = 0;
    for (size_t i = k; i < std::min(k + per_session, untraced.op_wall_ms.size()); ++i) {
      sum += untraced.op_wall_ms[i] / 1e3;
    }
    session_walls += (session_walls.empty() ? "" : ",") + std::to_string(sum);
  }
  JsonObject report;
  report.Add("workload", args.workload)
      .Add("seed", static_cast<long long>(args.seed))
      .Add("trace", args.trace)
      .Add("small", args.small)
      .AddRaw("host", host.ToString())
      .AddRaw("sizes", sizes_json.ToString())
      .AddRaw("setup_s", "[" + setups + "]")
      .Add("sessions", static_cast<long long>(untraced.sessions))
      .AddRaw("session_wall_s", "[" + session_walls + "]")
      .Add("ops", static_cast<long long>(untraced.op_wall_ms.size()))
      // The same wall figures over every repeat instead of each op's best.
      .Add("op_wall_all_p50_ms", Percentile(untraced.op_wall_ms, 50))
      .Add("op_wall_all_p90_ms", Percentile(untraced.op_wall_ms, 90))
      .Add("ops_per_s_all", OpsPerSecond(untraced.op_wall_ms))
      .Add("sim_repeatable", untraced.sim_repeatable)
      .Add("failed_op_frac", Ratio(failed, attempted))
      .Add("failures", untraced.why + traced.why);
  JsonObject calls;
  AddOpWallMetrics(&calls, untraced, workload->session_ops());
  AddCallMetrics(&calls, untraced);
  report.AddRaw("calls", calls.ToString());
  if (args.trace) {
    // Where the lake traffic went, per op, by object class.
    JsonObject by_class;
    for (int k = 0; k < static_cast<int>(KeyClass::kCount); ++k) {
      const StorageCounts& c = tally.storage[static_cast<KeyClass>(k)];
      double ops = static_cast<double>(std::max<int64_t>(tally.ops, 1));
      by_class.AddRaw(KeyClassName(static_cast<KeyClass>(k)),
                      JsonObject()
                          .Add("requests_per_op", c.requests() / ops)
                          .Add("bytes_read_per_op", c.bytes_read / ops)
                          .Add("bytes_written_per_op", c.bytes_written / ops)
                          .Add("sim_ms_per_op", c.sim_us / 1e3 / ops)
                          .ToString());
    }
    report.AddRaw("storage_by_class", by_class.ToString());
  }
  std::printf("%s\n", JsonObject().AddRaw("lakebench_report", report.ToString()).ToString().c_str());

  JsonObject result;
  result.Add("correct", correct)
      .Add("attempted", static_cast<long long>(attempted))
      .Add("failed", static_cast<long long>(failed))
      .AddRaw("metrics", metrics.ToString());
  std::printf("%s\n", result.ToString().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lakebench

int main(int argc, char** argv) { return lakebench::Main(argc, argv); }
