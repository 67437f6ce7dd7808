#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "analysis/analyzer.h"
#include "cache/fingerprint.h"
#include "columnar/datetime.h"
#include "columnar/serialize.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/lakehouse_source.h"
#include "pipeline/dag.h"
#include "pipeline/project.h"

namespace lakebench {

using bauplan::Bytes;
using bauplan::Result;
using bauplan::Status;
using bauplan::StrCat;
using bauplan::columnar::SerializeTable;
using bauplan::columnar::Table;
using bauplan::core::PipelineRunOptions;
using bauplan::core::RunReport;
using bauplan::pipeline::PipelineProject;
using SteadyClock = std::chrono::steady_clock;

namespace {

/// Artifact name -> serialized bytes, the unit of every run comparison.
std::map<std::string, Bytes> ArtifactBytes(const RunReport& report) {
  std::map<std::string, Bytes> out;
  for (const auto& [name, table] : report.artifacts) {
    out[name] = SerializeTable(table);
  }
  return out;
}

uint64_t TotalBytes(const std::map<std::string, Bytes>& artifacts) {
  uint64_t n = 0;
  for (const auto& [name, bytes] : artifacts) n += bytes.size();
  return n;
}

bool RunSucceeded(const Result<RunReport>& report) {
  return report.ok() && report->merged && report->all_expectations_passed;
}

void Corrupt(Bytes* bytes) {
  if (bytes->empty()) bytes->push_back(0);
  bytes->back() ^= 0x5a;
}

/// Seeded Fisher-Yates.
template <typename T>
void Shuffle(std::vector<T>* v, bauplan::Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(i) - 1))]);
  }
}

std::string MonthStart(int year, int month) {
  year += (month - 1) / 12;
  month = (month - 1) % 12 + 1;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-01", year, month);
  return buf;
}

/// Draws every workload's inputs from one seed but keeps them
/// independent of each other.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
}

}  // namespace

Result<uint64_t> Workload::LoadLake(bauplan::core::Bauplan& bp) {
  // Seeds move the row count by up to 1%, so simulated times (which
  // follow bytes) differ between seeds while the work stays the same.
  bauplan::Rng rng(SubSeed(seed_, 0));
  int64_t jitter = sizes_.taxi_rows / 100;
  taxi_rows_ = sizes_.taxi_rows + rng.UniformInt(-jitter, jitter);
  Table taxi = GenerateTrips(SubSeed(seed_, 1), taxi_rows_, 1,
                             kBaseStartMicros, 365 * kDayMicros);
  return LoadBaseTables(bp, taxi, GenerateZones(SubSeed(seed_, 2)));
}

// ------------------------------------------------------------------ client

Client::Client(const bauplan::storage::MemoryObjectStore& snapshot,
               uint64_t clock_start, LayerTally* tally)
    : store_(CopyStore(snapshot)),
      clock_(clock_start),
      side_clock_(clock_start),
      tally_(tally) {}

Result<std::unique_ptr<Client>> Client::Open(
    const bauplan::storage::MemoryObjectStore& snapshot, uint64_t clock_start,
    LayerTally* tally) {
  std::unique_ptr<Client> c(new Client(snapshot, clock_start, tally));
  bauplan::storage::ObjectStore* lake = c->store_.get();
  bauplan::storage::ObjectStore* side = c->store_.get();
  if (tally != nullptr) {
    auto latency = PlatformOptions().lake_latency;
    c->probe_ = std::make_unique<ProbeStore>(c->store_.get(), latency);
    c->replay_probe_ = std::make_unique<ProbeStore>(c->store_.get(), latency);
    lake = c->probe_.get();
    side = c->replay_probe_.get();
  }
  BAUPLAN_ASSIGN_OR_RETURN(
      c->bp_, bauplan::core::Bauplan::Open(lake, &c->clock_, PlatformOptions()));
  BAUPLAN_ASSIGN_OR_RETURN(bauplan::catalog::Catalog catalog,
                           bauplan::catalog::Catalog::Open(side, &c->side_clock_));
  c->side_catalog_ = std::make_unique<bauplan::catalog::Catalog>(catalog);
  c->side_ops_ = std::make_unique<bauplan::table::TableOps>(side, &c->side_clock_);
  return c;
}

template <typename F>
auto Client::Timed(CallType type, F&& call) {
  uint64_t sim_start = clock_.NowMicros();
  auto wall_start = SteadyClock::now();
  auto result = call();
  double wall_ms = static_cast<double>(NanosSince(wall_start)) / 1e6;
  calls.push_back(
      {type, wall_ms,
       static_cast<double>(clock_.NowMicros() - sim_start) / 1e3});
  return result;
}

Result<bauplan::sql::QueryResult> Client::Query(const std::string& sql,
                                                const std::string& ref) {
  auto result =
      Timed(CallType::kQuery, [&] { return bp_->Query(sql, ref); });
  if (tally_ != nullptr && result.ok()) {
    ++tally_->queries;
    if (result->from_cache) {
      ++tally_->query_cache_hits;
    } else {
      tally_->rows_out += result->table.num_rows();
      tally_->query_plan_sim_us += static_cast<int64_t>(
          result->trace.SumByKind(bauplan::observability::span_kind::kPlan));
      tally_->query_execute_sim_us +=
          static_cast<int64_t>(result->trace.SumByKind(
              bauplan::observability::span_kind::kExecute));
      Replay(sql, ref);
    }
  }
  return result;
}

Result<RunReport> Client::Run(const PipelineProject& project,
                              const std::string& branch,
                              const PipelineRunOptions& options) {
  if (tally_ != nullptr) ReplayPreflight(project, branch, options);
  auto report = Timed(CallType::kRun,
                      [&] { return bp_->Run(project, branch, options); });
  if (tally_ != nullptr && report.ok()) TallyRun(*report);
  return report;
}

Status Client::Write(const std::string& branch, const std::string& table,
                     const Table& data) {
  return Timed(CallType::kWrite,
               [&] { return bp_->WriteTable(branch, table, data); });
}

Result<Table> Client::Oracle(const std::string& sql,
                             const std::string& commit) {
  bauplan::core::LakehouseSource source(side_catalog_.get(), side_ops_.get(),
                                        commit);
  bauplan::sql::QueryOptions options;
  options.exec.engine = bauplan::sql::ExecOptions::Engine::kScalar;
  BAUPLAN_ASSIGN_OR_RETURN(auto result,
                           bauplan::sql::RunQuery(sql, source, &source, options));
  return std::move(result.table);
}

Result<std::string> Client::Head(const std::string& branch) {
  return side_catalog_->ResolveRef(branch);
}

void Client::Replay(const std::string& sql, const std::string& ref) {
  StorageTotals before = replay_probe_->totals();
  auto start = SteadyClock::now();
  auto commit = side_catalog_->Resolve(ref);
  tally_->resolve_ns += NanosSince(start);
  if (!commit.ok()) return;
  bauplan::core::LakehouseSource source(side_catalog_.get(), side_ops_.get(),
                                        *commit);
  TimedSource timed(&source);
  start = SteadyClock::now();
  auto result = bauplan::sql::RunQuery(sql, timed, &timed);
  int64_t query_ns = NanosSince(start);
  StorageTotals delta = replay_probe_->totals() - before;
  ++tally_->replays;
  tally_->scans += timed.scans;
  tally_->scan_ns += timed.scan_ns;
  tally_->files_total += timed.files_total;
  tally_->files_pruned += timed.files_pruned;
  tally_->engine_ns += query_ns - timed.scan_ns;
  tally_->manifest_reads += delta[KeyClass::kManifest].gets;
  tally_->data_bytes += delta[KeyClass::kDataFile].bytes_read;
  tally_->replay_storage_ns += delta.Sum().wall_ns;
}

void Client::ReplayPreflight(const PipelineProject& project,
                             const std::string& branch,
                             const PipelineRunOptions& options) {
  StorageTotals before = replay_probe_->totals();
  auto start = SteadyClock::now();
  auto commit = side_catalog_->ResolveRef(branch);
  if (!commit.ok()) return;
  auto tables = side_catalog_->GetTables(*commit);
  if (!tables.ok()) return;
  std::set<std::string> known;
  for (const auto& [name, key] : *tables) known.insert(name);
  if (options.verify) {
    // What Bauplan::Check composes: schemas resolve at the pinned commit.
    bauplan::core::LakehouseSource source(side_catalog_.get(),
                                          side_ops_.get(), *commit);
    bauplan::analysis::Analyzer analyzer(known, &source);
    (void)analyzer.Analyze(project);
    tally_->check_ns += NanosSince(start);
  }
  if (options.use_cache) {
    start = SteadyClock::now();
    auto dag = bauplan::pipeline::Dag::Build(project, known);
    if (dag.ok()) {
      const auto& order = dag->execution_order();
      (void)bauplan::cache::ComputeNodeFingerprints(
          *dag, std::set<std::string>(order.begin(), order.end()),
          side_catalog_.get(), *commit);
    }
    tally_->fingerprint_ns += NanosSince(start);
  }
  tally_->preflight_storage_ns +=
      (replay_probe_->totals() - before).Sum().wall_ns;
}

void Client::TallyRun(const RunReport& report) {
  LayerTally& t = *tally_;
  ++t.runs;
  auto add = [&](const bauplan::core::NodeExecution& n, bool placed) {
    ++t.invocations;
    t.startup_us += n.startup_micros;
    t.queue_us += n.queue_micros;
    t.transfer_us += n.transfer_micros;
    t.body_us += n.body_micros;
    if (n.start_kind == bauplan::runtime::StartKind::kCold) ++t.cold_starts;
    if (placed) {
      ++t.placed;
      if (n.locality_hit) ++t.locality_hits;
    }
  };
  if (report.fused.has_value()) add(*report.fused, false);
  for (const auto& node : report.nodes) {
    if (node.cache_hit) continue;
    if (!report.fused.has_value()) add(node, true);
    if (node.kind == bauplan::pipeline::NodeKind::kSqlModel) {
      t.rows_out += node.output_rows;
    }
  }
  t.spill_bytes += report.spill_metrics.bytes_written;
}

// ---------------------------------------------------------- analyst_queries

namespace {

/// The same statement with other keyword case and/or whitespace: the
/// result must not change, but a text-keyed cache will not see it as a
/// repeat. Identifiers are lower case, so only keywords change.
std::string Restyle(const std::string& sql, int style) {
  std::string out;
  bool quoted = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (c == '\'') quoted = !quoted;
    if (!quoted && (style & 1) && std::isupper(static_cast<unsigned char>(c))) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (!quoted && (style & 2) && c == ' ') {
      bool keyword_next = i + 1 < sql.size() &&
                          std::isupper(static_cast<unsigned char>(sql[i + 1]));
      out += keyword_next ? "\n  " : "  ";
      continue;
    }
    out += c;
  }
  return out;
}

class AnalystQueries : public Workload {
 public:
  AnalystQueries(uint64_t seed, Sizes sizes) : Workload(seed, sizes) {}

  Result<uint64_t> Setup(bauplan::core::Bauplan& bp) override {
    BAUPLAN_ASSIGN_OR_RETURN(uint64_t bytes, LoadLake(bp));
    BuildPlan();
    // Warm-up: one statement of each shape touches every code path.
    std::set<int> seen;
    for (const auto& s : plan_) {
      if (!seen.insert(s.shape).second) continue;
      BAUPLAN_RETURN_NOT_OK(bp.Query(canonical_[s.canonical], "main").status());
    }
    return bytes;
  }

  bool RunOp(Client& client, int64_t i) override {
    const Statement& s = plan_[static_cast<size_t>(i)];
    auto result = client.Query(s.text, "main");
    if (!result.ok()) return false;
    Bytes bytes = SerializeTable(result->table);
    auto it = expected_.find(s.canonical);
    if (it != expected_.end()) return it->second == bytes;
    if (inject_wrong_result && i == 0) Corrupt(&bytes);
    expected_.emplace(s.canonical, std::move(bytes));
    return true;
  }

  int64_t Verify(Client& client, const bauplan::storage::MemoryObjectStore&,
                 uint64_t, std::string* why) override {
    auto commit = client.Head("main");
    if (!commit.ok()) {
      *why += "cannot resolve main; ";
      return static_cast<int64_t>(plan_.size());
    }
    std::map<std::string, bool> verdict;  // distinct text -> matches oracle
    for (const auto& s : plan_) {
      if (verdict.count(s.text) > 0) continue;
      auto oracle = client.Oracle(s.text, *commit);
      auto it = expected_.find(s.canonical);
      verdict[s.text] = oracle.ok() && it != expected_.end() &&
                        SerializeTable(*oracle) == it->second;
      if (!verdict[s.text]) {
        *why += StrCat("statement ", s.canonical, " differs from the scalar "
                       "oracle; ");
      }
    }
    int64_t failed = 0;
    for (const auto& s : plan_) failed += verdict[s.text] ? 0 : 1;
    return failed;
  }

  JsonObject Describe() const override {
    std::set<std::string> distinct;
    for (const auto& s : plan_) distinct.insert(s.text);
    int64_t restyled = 0;
    for (const auto& s : plan_) restyled += s.text != canonical_[s.canonical];
    int64_t exact =
        static_cast<int64_t>(plan_.size() - canonical_.size()) - restyled;
    JsonObject o;
    o.Add("taxi_rows", static_cast<long long>(taxi_rows_))
        .Add("statements_per_session", static_cast<long long>(plan_.size()))
        .Add("distinct_statements", static_cast<long long>(distinct.size()))
        .Add("exact_repeats", static_cast<long long>(exact))
        .Add("restyled_repeats", static_cast<long long>(restyled));
    return o;
  }

 private:
  struct Statement {
    std::string text;
    size_t canonical;
    int shape;
  };

  /// One statement of `shape`. Literals are drawn so that every
  /// statement of a shape costs about the same: time ranges span exactly
  /// two monthly partitions, filters keep most rows, zones are rare ones.
  /// The extra `fare <` / `trip_distance <` bounds keep nearly every row
  /// and make statements distinct.
  std::string Render(int shape, bauplan::Rng& rng) const {
    auto two_months = [&] {
      int m = static_cast<int>(rng.UniformInt(1, 11));
      return std::make_pair(MonthStart(2019, m), MonthStart(2019, m + 2));
    };
    const int64_t loose = rng.UniformInt(150, 400);
    switch (shape) {
      case 0:  // selective point filter (zone maps prune by trip_id)
        return StrCat("SELECT trip_id, pickup_at, pickup_location_id, fare, "
                      "trip_distance FROM taxi_table WHERE trip_id = ",
                      rng.UniformInt(1, taxi_rows_));
      case 1: {  // time-range group-by (partition pruning)
        auto [lo, hi] = two_months();
        return StrCat("SELECT pickup_location_id, COUNT(*) AS trips, "
                      "SUM(fare) AS revenue FROM taxi_table WHERE pickup_at "
                      ">= '", lo, "' AND pickup_at < '", hi, "' AND fare < ",
                      loose, " GROUP BY pickup_location_id ORDER BY "
                      "pickup_location_id");
      }
      case 2:  // multi-key group-by
        return StrCat("SELECT pickup_location_id, passenger_count, COUNT(*) "
                      "AS trips, AVG(trip_distance) AS avg_distance FROM "
                      "taxi_table WHERE fare >= ",
                      static_cast<double>(rng.UniformInt(24, 40)) / 4,
                      " AND trip_distance < ", loose,
                      " GROUP BY pickup_location_id, passenger_count ORDER BY "
                      "pickup_location_id, passenger_count");
      case 3:  // top-N sort
        return StrCat("SELECT trip_id, fare, trip_distance FROM taxi_table "
                      "WHERE pickup_location_id = ", rng.UniformInt(40, 265),
                      " ORDER BY fare DESC, trip_id LIMIT 10");
      case 4: {  // join to the dimension table
        auto [lo, hi] = two_months();
        return StrCat("SELECT zones.borough, COUNT(*) AS trips, "
                      "SUM(taxi_table.fare) AS revenue FROM taxi_table JOIN "
                      "zones ON taxi_table.pickup_location_id = zones.zone_id "
                      "WHERE taxi_table.pickup_at >= '", lo,
                      "' AND taxi_table.pickup_at < '", hi,
                      "' AND taxi_table.fare < ", loose,
                      " GROUP BY zones.borough ORDER BY zones.borough");
      }
      default:  // full-scan aggregate
        return StrCat("SELECT COUNT(*) AS trips, SUM(fare) AS revenue, "
                      "AVG(trip_distance) AS avg_distance, MAX(fare) AS "
                      "max_fare FROM taxi_table WHERE passenger_count >= 1 "
                      "AND fare < ", loose);
    }
  }

  /// A fifth of the statements re-issue an earlier one, half of those
  /// restyled; the rest are distinct and cover the six shapes in equal
  /// shares, so seeds change literals and order but not the mix.
  void BuildPlan() {
    bauplan::Rng rng(SubSeed(seed_, 3));
    const int64_t n = sizes_.session_ops;
    const int64_t repeats = n / 5;
    std::vector<int> shapes(static_cast<size_t>(n - repeats));
    for (size_t k = 0; k < shapes.size(); ++k) shapes[k] = static_cast<int>(k % 6);
    Shuffle(&shapes, rng);
    std::vector<bool> is_repeat(static_cast<size_t>(n), false);
    std::vector<size_t> positions;
    for (int64_t p = 1; p < n; ++p) positions.push_back(static_cast<size_t>(p));
    Shuffle(&positions, rng);
    for (int64_t r = 0; r < repeats; ++r) is_repeat[positions[r]] = true;

    canonical_.clear();
    plan_.clear();
    expected_.clear();
    size_t next_shape = 0;
    int64_t repeat_count = 0;
    std::vector<int> shape_of;
    for (int64_t p = 0; p < n; ++p) {
      if (is_repeat[static_cast<size_t>(p)]) {
        size_t c = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(canonical_.size()) - 1));
        std::string text = canonical_[c];
        if (repeat_count++ % 2 == 1) {
          text = Restyle(text, static_cast<int>(rng.UniformInt(1, 3)));
        }
        plan_.push_back({std::move(text), c, shape_of[c]});
      } else {
        int shape = shapes[next_shape++];
        std::string text;
        do {
          text = Render(shape, rng);
        } while (std::find(canonical_.begin(), canonical_.end(), text) !=
                 canonical_.end());
        canonical_.push_back(std::move(text));
        shape_of.push_back(shape);
        plan_.push_back({canonical_.back(), canonical_.size() - 1, shape});
      }
    }
  }

  std::vector<std::string> canonical_;
  std::vector<Statement> plan_;
  std::map<size_t, Bytes> expected_;  // canonical index -> result bytes
};

// --------------------------------------------------------- pipeline_devloop

/// A literal inside a node's SQL: a quoted string or a bare number that
/// is not part of an identifier.
struct Literal {
  size_t pos;
  size_t len;
};

std::vector<Literal> FindLiterals(const std::string& sql) {
  std::vector<Literal> out;
  for (size_t i = 0; i < sql.size();) {
    char c = sql[i];
    if (c == '\'') {
      size_t end = sql.find('\'', i + 1);
      if (end == std::string::npos) break;
      out.push_back({i, end - i + 1});
      i = end + 1;
    } else if (std::isdigit(static_cast<unsigned char>(c)) &&
               (i == 0 || !(std::isalnum(static_cast<unsigned char>(sql[i - 1])) ||
                            sql[i - 1] == '_'))) {
      size_t end = i;
      while (end < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[end])) || sql[end] == '.')) {
        ++end;
      }
      out.push_back({i, end - i});
      i = end;
    } else {
      ++i;
    }
  }
  return out;
}

/// Values an edit may give a literal, by kind: a January day for the
/// date filter, a distance threshold near 2.5 for decimals, a passenger
/// count for integers. Every value costs about the same to run.
std::vector<std::string> LiteralPool(const std::string& literal) {
  std::vector<std::string> pool;
  if (literal.front() == '\'') {
    for (int d = 1; d <= 28; ++d) {
      pool.push_back(StrCat("'", bauplan::columnar::FormatTimestampString(
                                     kBaseStartMicros + (d - 1) * kDayMicros),
                            "'"));
    }
  } else if (literal.find('.') != std::string::npos) {
    for (int k = 0; k <= 16; ++k) pool.push_back(StrCat(2.0 + k / 16.0));
  } else {
    for (int k = 0; k <= 6; ++k) pool.push_back(StrCat(k));
  }
  return pool;
}

PipelineProject WithNodeCode(const PipelineProject& in, const std::string& node,
                             const std::string& code) {
  PipelineProject out(in.name());
  for (const auto& n : in.nodes()) {
    const std::string& text = n.name == node ? code : n.code;
    Status st = n.kind == bauplan::pipeline::NodeKind::kSqlModel
                    ? out.AddSqlNode(n.name, text, n.requirements)
                    : out.AddExpectationNode(n.name, text, n.requirements);
    (void)st;  // names and kinds are copied from a valid project
  }
  return out;
}

class PipelineDevloop : public Workload {
 public:
  PipelineDevloop(uint64_t seed, Sizes sizes) : Workload(seed, sizes) {}

  Result<uint64_t> Setup(bauplan::core::Bauplan& bp) override {
    BAUPLAN_ASSIGN_OR_RETURN(uint64_t bytes, LoadLake(bp));
    BAUPLAN_RETURN_NOT_OK(bp.CreateBranch("dev", "main"));
    base_ = bauplan::pipeline::MakeWideTaxiPipeline(kFanOut);
    BuildPlan();
    auto warm = bp.Run(base_, "dev");
    if (!RunSucceeded(warm)) {
      return Status::Internal(StrCat("devloop warm-up run failed: ",
                                     warm.ok() ? warm->status
                                               : warm.status().ToString()));
    }
    return bytes;
  }

  bool RunOp(Client& client, int64_t i) override {
    auto report = client.Run(plan_[static_cast<size_t>(i)], "dev",
                             PipelineRunOptions());
    if (!RunSucceeded(report)) return false;
    if (i == compared_op() && compared_.empty()) {
      compared_ = ArtifactBytes(*report);
      if (inject_wrong_result) Corrupt(&compared_.begin()->second);
    }
    return true;
  }

  int64_t Verify(Client&, const bauplan::storage::MemoryObjectStore& snapshot,
                 uint64_t clock_start, std::string* why) override {
    auto fresh = Client::Open(snapshot, clock_start, nullptr);
    if (!fresh.ok()) {
      *why += "cannot open a fresh platform; ";
      return 1;
    }
    PipelineRunOptions off;
    off.use_cache = false;
    auto report = (*fresh)->Run(plan_[static_cast<size_t>(compared_op())],
                                "dev", off);
    if (!RunSucceeded(report) || ArtifactBytes(*report) != compared_) {
      *why += StrCat("run ", compared_op(),
                     " differs from a cache-off run on a fresh platform; ");
      return 1;
    }
    return 0;
  }

  JsonObject Describe() const override {
    JsonObject o;
    o.Add("taxi_rows", static_cast<long long>(taxi_rows_))
        .Add("runs_per_session", static_cast<long long>(plan_.size()))
        .Add("pipeline_nodes", static_cast<long long>(base_.nodes().size()))
        .Add("artifact_bytes_per_run", static_cast<long long>(TotalBytes(compared_)))
        .Add("edits", edits_);
    return o;
  }

 private:
  int64_t compared_op() const { return sizes_.session_ops - 1; }

  /// Each iteration changes one literal of the current project; edits
  /// accumulate like a developer's working copy. The literals take turns
  /// in project order, the root model's (whose cone is the most
  /// expensive to re-run) every fourth turn besides, and every third
  /// edit of a literal reverts its previous one. The seed picks where
  /// the turns start and the values, so the mix of cheap and expensive
  /// runs, and of runs the artifact cache serves, is the same for every
  /// seed, and no percentile sits on the edge between two kinds of run.
  void BuildPlan() {
    struct Slot {
      std::string node;
      size_t index;  // which literal of the node
      std::vector<std::string> history;
      std::vector<std::string> unused;
    };
    std::vector<Slot> slots;
    for (const auto& n : base_.nodes()) {
      if (n.kind != bauplan::pipeline::NodeKind::kSqlModel) continue;
      auto literals = FindLiterals(n.code);
      for (size_t k = 0; k < literals.size(); ++k) {
        std::string value = n.code.substr(literals[k].pos, literals[k].len);
        Slot slot{n.name, k, {value}, LiteralPool(value)};
        slot.unused.erase(
            std::remove(slot.unused.begin(), slot.unused.end(), value),
            slot.unused.end());
        slots.push_back(std::move(slot));
      }
    }
    std::vector<size_t> turns;
    for (size_t k = 1; k < slots.size(); ++k) {
      if (turns.size() % 4 == 0) turns.push_back(0);
      turns.push_back(k);
    }
    bauplan::Rng rng(SubSeed(seed_, 4));
    const int64_t start = rng.UniformInt(0, static_cast<int64_t>(turns.size()) - 1);
    plan_.clear();
    compared_.clear();
    edits_.clear();
    PipelineProject current = base_;
    for (int64_t i = 0; i < sizes_.session_ops; ++i) {
      Slot& slot = slots[turns[static_cast<size_t>(start + i) % turns.size()]];
      std::string value;
      if (slot.history.size() % 3 == 0 || slot.unused.empty()) {
        value = slot.history[slot.history.size() - 2];  // revert
      } else {
        size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(slot.unused.size()) - 1));
        value = slot.unused[pick];
        slot.unused.erase(slot.unused.begin() + static_cast<int64_t>(pick));
      }
      slot.history.push_back(value);
      std::string code;
      for (const auto& n : current.nodes()) {
        if (n.name == slot.node) code = n.code;
      }
      const Literal lit = FindLiterals(code)[slot.index];
      code.replace(lit.pos, lit.len, value);
      edits_ += StrCat(i == 0 ? "" : ",", slot.node, "=", value);
      current = WithNodeCode(current, slot.node, code);
      plan_.push_back(current);
    }
  }

  PipelineProject base_{"unset"};
  std::vector<PipelineProject> plan_;
  std::map<std::string, Bytes> compared_;
  std::string edits_;
};

// ---------------------------------------------------------- nightly_refresh

class NightlyRefresh : public Workload {
 public:
  NightlyRefresh(uint64_t seed, Sizes sizes, int parallelism)
      : Workload(seed, sizes), parallelism_(parallelism) {}

  Result<uint64_t> Setup(bauplan::core::Bauplan& bp) override {
    BAUPLAN_ASSIGN_OR_RETURN(uint64_t bytes, LoadLake(bp));
    // One day of trips per night, each batch within 10% of batch_rows.
    batches_.clear();
    batch_bytes_ = 0;
    bauplan::Rng rng(SubSeed(seed_, 5));
    int64_t next_trip_id = taxi_rows_ + 1;
    for (int64_t c = 0; c < sizes_.session_ops; ++c) {
      int64_t jitter = sizes_.batch_rows / 10;
      int64_t rows = sizes_.batch_rows + rng.UniformInt(-jitter, jitter);
      batches_.push_back(GenerateTrips(
          SubSeed(seed_, 100 + static_cast<uint64_t>(c)), rows, next_trip_id,
          kBatchStartMicros + c * kDayMicros, kDayMicros));
      next_trip_id += rows;
      batch_bytes_ += SerializeTable(batches_.back()).size();
    }
    project_ = bauplan::pipeline::MakeWideTaxiPipeline(kFanOut);
    expected_.clear();
    dashboards_.clear();
    compared_.clear();
    auto warm = bp.Run(project_, "main", RunOptions());
    if (!RunSucceeded(warm)) {
      return Status::Internal(StrCat("nightly warm-up run failed: ",
                                     warm.ok() ? warm->status
                                               : warm.status().ToString()));
    }
    return bytes;
  }

  uint64_t SessionInputBytes() const override { return batch_bytes_; }

  bool RunOp(Client& client, int64_t c) override {
    if (!client.Write("main", kTaxiTable, batches_[static_cast<size_t>(c)]).ok()) {
      return false;
    }
    auto report = client.Run(project_, "main", RunOptions());
    if (!RunSucceeded(report)) return false;
    if (c == 0 && compared_.empty()) {
      compared_ = ArtifactBytes(*report);
      if (inject_wrong_result) Corrupt(&compared_.begin()->second);
    }
    bool ok = true;
    auto queries = Dashboards(c);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = client.Query(queries[q], "main");
      if (!result.ok()) {
        ok = false;
        continue;
      }
      Bytes bytes = SerializeTable(result->table);
      auto key = std::make_pair(c, q);
      auto it = expected_.find(key);
      if (it == expected_.end()) {
        dashboards_.push_back({report->merged_commit_id, queries[q], key});
        expected_.emplace(key, std::move(bytes));
      } else if (it->second != bytes) {
        ok = false;
      }
    }
    return ok;
  }

  int64_t Verify(Client& client,
                 const bauplan::storage::MemoryObjectStore& snapshot,
                 uint64_t clock_start, std::string* why) override {
    std::set<int64_t> failed_cycles;
    for (const auto& d : dashboards_) {
      auto oracle = client.Oracle(d.sql, d.commit);
      if (!oracle.ok() || SerializeTable(*oracle) != expected_[d.key]) {
        failed_cycles.insert(d.key.first);
        *why += StrCat("cycle ", d.key.first, " dashboard ", d.key.second,
                       " differs from the scalar oracle; ");
      }
    }
    // Cycle 0 again on a fresh platform with the artifact cache off.
    auto fresh = Client::Open(snapshot, clock_start, nullptr);
    bool same = false;
    if (fresh.ok() && (*fresh)->Write("main", kTaxiTable, batches_[0]).ok()) {
      PipelineRunOptions off = RunOptions();
      off.use_cache = false;
      auto report = (*fresh)->Run(project_, "main", off);
      same = RunSucceeded(report) && ArtifactBytes(*report) == compared_;
    }
    if (!same) {
      failed_cycles.insert(0);
      *why += "cycle 0 run differs from a cache-off run on a fresh platform; ";
    }
    return static_cast<int64_t>(failed_cycles.size());
  }

  JsonObject Describe() const override {
    JsonObject o;
    o.Add("taxi_rows", static_cast<long long>(taxi_rows_))
        .Add("batch_rows", static_cast<long long>(sizes_.batch_rows))
        .Add("cycles_per_session", static_cast<long long>(sizes_.session_ops))
        .Add("dashboard_queries_per_cycle",
             static_cast<long long>(Dashboards(0).size()))
        .Add("parallelism", static_cast<long long>(parallelism_))
        .Add("pipeline_nodes", static_cast<long long>(project_.nodes().size()))
        .Add("artifact_bytes_per_run", static_cast<long long>(TotalBytes(compared_)));
    return o;
  }

 private:
  PipelineRunOptions RunOptions() const {
    PipelineRunOptions options;
    options.fused = false;
    options.parallelism = parallelism_;
    return options;
  }

  /// Dashboards read the fresh artifacts and the newest day of data.
  std::vector<std::string> Dashboards(int64_t cycle) const {
    std::string day = bauplan::columnar::FormatTimestampString(
        kBatchStartMicros + cycle * kDayMicros);
    return {
        "SELECT * FROM trip_balance ORDER BY short_rides DESC, long_rides "
        "DESC LIMIT 10",
        "SELECT pickup_location_id, rides, revenue FROM long_trips ORDER BY "
        "revenue DESC, pickup_location_id LIMIT 10",
        StrCat("SELECT COUNT(*) AS trips, SUM(fare) AS revenue FROM "
               "taxi_table WHERE pickup_at >= '", day, "'"),
    };
  }

  struct Dashboard {
    std::string commit;
    std::string sql;
    std::pair<int64_t, size_t> key;
  };

  int parallelism_;
  PipelineProject project_{"unset"};
  std::vector<Table> batches_;
  uint64_t batch_bytes_ = 0;
  std::map<std::pair<int64_t, size_t>, Bytes> expected_;
  std::vector<Dashboard> dashboards_;
  std::map<std::string, Bytes> compared_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const Sizes& sizes) {
  if (name == "analyst_queries") {
    return std::make_unique<AnalystQueries>(seed, sizes);
  }
  if (name == "pipeline_devloop") {
    return std::make_unique<PipelineDevloop>(seed, sizes);
  }
  if (name == "nightly_refresh") {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::make_unique<NightlyRefresh>(seed, sizes,
                                            std::clamp(hw, 1, 4));
  }
  return nullptr;
}

}  // namespace lakebench
