#ifndef BAUPLAN_OBSERVABILITY_METRICS_H_
#define BAUPLAN_OBSERVABILITY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace bauplan::observability {

/// Monotonic integer counter. Increments are lock-free; safe from any
/// thread (parallel wavefront bodies hammer these).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-value instrument (pool sizes, bytes in use).
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  /// Raises the gauge to `value` if it is higher (peak tracking).
  void SetMax(int64_t value);
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed histogram of non-negative samples (latencies in micros,
/// payload sizes in bytes). Observations are lock-free.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 40;  // bucket i: [2^(i-1), 2^i)

  void Observe(uint64_t value);

  struct Snapshot {
    int64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double Mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / count;
    }
  };
  Snapshot GetSnapshot() const;
  void Reset();

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
};

/// Flat name -> value dump of a registry at one instant. Histograms
/// expand into `<name>.count/.sum/.min/.max`.
struct MetricsSnapshot {
  std::map<std::string, double> values;

  double Get(const std::string& name, double fallback = 0.0) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }

  /// Deterministic "name value" lines, sorted by name.
  std::string ToText() const;
  /// Deterministic {"name":value,...} rendering, sorted by name.
  std::string ToJson() const;
};

/// Process-wide (or per-platform) registry of named instruments. Getting
/// an instrument registers it on first use and returns the same pointer
/// for the same name afterwards, so components share counters by naming
/// convention ("scheduler.locality_hits", "store.spill.puts", ...).
/// Registration takes a lock; the returned instruments are updated
/// lock-free and stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Zeroes every registered instrument (names stay registered).
  void Reset();

  MetricsSnapshot Snapshot() const;

  size_t instrument_count() const;

  /// The process-wide default registry. Components use it only when no
  /// registry is injected; each Bauplan platform owns a private registry
  /// so that benches running several platforms do not mix counters.
  static MetricsRegistry* Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      BAUPLAN_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      BAUPLAN_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      BAUPLAN_GUARDED_BY(mu_);
};

}  // namespace bauplan::observability

#endif  // BAUPLAN_OBSERVABILITY_METRICS_H_
