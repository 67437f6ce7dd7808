#include "observability/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/strings.h"

#include "observability/trace.h"

namespace bauplan::observability {

// ------------------------------------------------------------------ Gauge

void Gauge::SetMax(int64_t value) {
  int64_t current = value_.load(std::memory_order_relaxed);
  while (current < value &&
         !value_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

// -------------------------------------------------------------- Histogram

namespace {
size_t BucketFor(uint64_t value) {
  size_t bucket = 0;
  while (value > 0 && bucket + 1 < Histogram::kNumBuckets) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

/// Atomic min via CAS (no std::atomic_fetch_min until C++26).
void UpdateMin(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void UpdateMax(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}
}  // namespace

void Histogram::Observe(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  UpdateMin(min_, value);
  UpdateMax(max_, value);
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  Snapshot snapshot;
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  uint64_t min = min_.load(std::memory_order_relaxed);
  snapshot.min = snapshot.count == 0 ? 0 : min;
  snapshot.max = max_.load(std::memory_order_relaxed);
  return snapshot;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

// -------------------------------------------------------- MetricsSnapshot

namespace {
/// Integral values print without a decimal point so counter dumps stay
/// readable and goldens stable; true doubles keep 6 significant digits.
std::string FormatMetricValue(double value) {
  int64_t as_int = static_cast<int64_t>(value);
  if (static_cast<double>(as_int) == value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, as_int);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}
}  // namespace

std::string MetricsSnapshot::ToText() const {
  std::ostringstream out;
  for (const auto& [name, value] : values) {
    out << name << " " << FormatMetricValue(value) << "\n";
  }
  return out.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out << ",";
    first = false;
    out << "\"" << EscapeJson(name) << "\":" << FormatMetricValue(value);
  }
  out << "}";
  return out.str();
}

// -------------------------------------------------------- MetricsRegistry

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.values[name] = static_cast<double>(counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.values[name] = static_cast<double>(gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot h = histogram->GetSnapshot();
    snapshot.values[name + ".count"] = static_cast<double>(h.count);
    snapshot.values[name + ".sum"] = static_cast<double>(h.sum);
    snapshot.values[name + ".min"] = static_cast<double>(h.min);
    snapshot.values[name + ".max"] = static_cast<double>(h.max);
  }
  return snapshot;
}

size_t MetricsRegistry::instrument_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

}  // namespace bauplan::observability
