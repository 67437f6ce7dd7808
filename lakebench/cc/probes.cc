#include "probes.h"

namespace lakebench {

using bauplan::storage::StoreOp;
using Clock = std::chrono::steady_clock;

const char* KeyClassName(KeyClass c) {
  switch (c) {
    case KeyClass::kCatalogRef: return "catalog_ref";
    case KeyClass::kCatalogCommit: return "catalog_commit";
    case KeyClass::kTableMetadata: return "table_metadata";
    case KeyClass::kManifest: return "table_manifest";
    case KeyClass::kDataFile: return "data_file";
    case KeyClass::kCache: return "cache";
    case KeyClass::kAudit: return "audit";
    case KeyClass::kRunRegistry: return "run_registry";
    default: return "other";
  }
}

KeyClass ClassifyKey(const std::string& key) {
  auto starts = [&](const char* p) { return key.rfind(p, 0) == 0; };
  if (starts("catalog/refs/")) return KeyClass::kCatalogRef;
  if (starts("catalog/commits/")) return KeyClass::kCatalogCommit;
  if (starts("cache/")) return KeyClass::kCache;
  if (starts("audit/")) return KeyClass::kAudit;
  if (starts("runs/")) return KeyClass::kRunRegistry;
  if (starts("lake/")) {
    if (key.find("/data/") != std::string::npos) return KeyClass::kDataFile;
    if (key.find("/metadata/manifest-") != std::string::npos) {
      return KeyClass::kManifest;
    }
    if (key.find("/metadata/") != std::string::npos) {
      return KeyClass::kTableMetadata;
    }
  }
  return KeyClass::kOther;
}

StorageCounts& StorageCounts::operator+=(const StorageCounts& o) {
  gets += o.gets;
  puts += o.puts;
  heads += o.heads;
  lists += o.lists;
  deletes += o.deletes;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  wall_ns += o.wall_ns;
  sim_us += o.sim_us;
  return *this;
}

StorageCounts StorageCounts::operator-(const StorageCounts& o) const {
  StorageCounts d;
  d.gets = gets - o.gets;
  d.puts = puts - o.puts;
  d.heads = heads - o.heads;
  d.lists = lists - o.lists;
  d.deletes = deletes - o.deletes;
  d.bytes_read = bytes_read - o.bytes_read;
  d.bytes_written = bytes_written - o.bytes_written;
  d.wall_ns = wall_ns - o.wall_ns;
  d.sim_us = sim_us - o.sim_us;
  return d;
}

StorageCounts StorageTotals::Sum() const {
  StorageCounts s;
  for (const auto& c : by_class) s += c;
  return s;
}

StorageTotals StorageTotals::operator-(const StorageTotals& o) const {
  StorageTotals d;
  for (size_t i = 0; i < by_class.size(); ++i) {
    d.by_class[i] = by_class[i] - o.by_class[i];
  }
  return d;
}

void ProbeStore::Record(const std::string& key, StoreOp op, uint64_t nbytes,
                        Clock::time_point start) const {
  int64_t wall = NanosSince(start);
  Counters& c = counters_[static_cast<size_t>(ClassifyKey(key))];
  c.calls[static_cast<int>(op)].fetch_add(1, std::memory_order_relaxed);
  if (op == StoreOp::kGet) {
    c.bytes_read.fetch_add(static_cast<int64_t>(nbytes),
                           std::memory_order_relaxed);
  } else if (op == StoreOp::kPut) {
    c.bytes_written.fetch_add(static_cast<int64_t>(nbytes),
                              std::memory_order_relaxed);
  }
  c.wall_ns.fetch_add(wall, std::memory_order_relaxed);
  c.sim_us.fetch_add(static_cast<int64_t>(latency_.MicrosFor(op, nbytes)),
                     std::memory_order_relaxed);
}

bauplan::Status ProbeStore::Put(const std::string& key, bauplan::Bytes data) {
  auto start = Clock::now();
  uint64_t n = data.size();
  bauplan::Status st = base_->Put(key, std::move(data));
  Record(key, StoreOp::kPut, n, start);
  return st;
}

bauplan::Result<bauplan::Bytes> ProbeStore::Get(const std::string& key) const {
  auto start = Clock::now();
  auto result = base_->Get(key);
  Record(key, StoreOp::kGet, result.ok() ? result->size() : 0, start);
  return result;
}

bauplan::Result<uint64_t> ProbeStore::Head(const std::string& key) const {
  auto start = Clock::now();
  auto result = base_->Head(key);
  Record(key, StoreOp::kHead, 0, start);
  return result;
}

bauplan::Status ProbeStore::Delete(const std::string& key) {
  auto start = Clock::now();
  bauplan::Status st = base_->Delete(key);
  Record(key, StoreOp::kDelete, 0, start);
  return st;
}

bauplan::Result<std::vector<bauplan::storage::ObjectMeta>> ProbeStore::List(
    const std::string& prefix) const {
  auto start = Clock::now();
  auto result = base_->List(prefix);
  Record(prefix, StoreOp::kList, 0, start);
  return result;
}

StorageTotals ProbeStore::totals() const {
  StorageTotals t;
  for (size_t i = 0; i < counters_.size(); ++i) {
    const Counters& c = counters_[i];
    StorageCounts& out = t.by_class[i];
    auto load = [](const std::atomic<int64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    out.gets = load(c.calls[static_cast<int>(StoreOp::kGet)]);
    out.puts = load(c.calls[static_cast<int>(StoreOp::kPut)]);
    out.heads = load(c.calls[static_cast<int>(StoreOp::kHead)]);
    out.lists = load(c.calls[static_cast<int>(StoreOp::kList)]);
    out.deletes = load(c.calls[static_cast<int>(StoreOp::kDelete)]);
    out.bytes_read = load(c.bytes_read);
    out.bytes_written = load(c.bytes_written);
    out.wall_ns = load(c.wall_ns);
    out.sim_us = load(c.sim_us);
  }
  return t;
}

bauplan::Result<bauplan::columnar::Schema> TimedSource::GetTableSchema(
    const std::string& table_name) const {
  return inner_->GetTableSchema(table_name);
}

bauplan::Result<bauplan::columnar::Table> TimedSource::ScanTable(
    const std::string& name, const std::vector<std::string>& columns,
    const std::vector<bauplan::format::ColumnPredicate>& predicates) {
  auto start = Clock::now();
  auto result = inner_->ScanTable(name, columns, predicates);
  scan_ns += NanosSince(start);
  ++scans;
  if (result.ok()) {
    const auto& plan = inner_->last_scan_plan();
    files_total += plan.files_total;
    files_pruned += plan.files_pruned_by_partition + plan.files_pruned_by_stats;
  }
  return result;
}

}  // namespace lakebench
