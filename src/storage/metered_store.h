#ifndef BAUPLAN_STORAGE_METERED_STORE_H_
#define BAUPLAN_STORAGE_METERED_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "observability/metrics.h"
#include "storage/latency_model.h"
#include "storage/object_store.h"

namespace bauplan::storage {

/// Point-in-time totals of everything a metered store did. The fusion
/// benchmark (paper section 4.4.2) compares exactly these counters
/// between the naive spill-through-storage execution and the fused
/// in-memory one. Built on demand from the store's registry instruments
/// — this is a snapshot value, not a live reference.
struct StoreMetrics {
  int64_t gets = 0;
  int64_t puts = 0;
  int64_t heads = 0;
  int64_t lists = 0;
  int64_t deletes = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  /// Total modeled latency charged to the clock, microseconds. A batch
  /// (GetMany) is charged its makespan, so this is at most
  /// request_micros.
  uint64_t simulated_micros = 0;
  /// Sum of every request's own modeled latency, microseconds; minus
  /// simulated_micros, it is the I/O time batching overlapped.
  uint64_t request_micros = 0;
  /// Scan credits (cost model): every request but DELETE at
  /// credits_per_request, plus every byte moved at credits_per_byte.
  double credits = 0.0;

  int64_t TotalRequests() const {
    return gets + puts + heads + lists + deletes;
  }
};

/// Decorates any ObjectStore with a latency model (charged to a Clock) and
/// a cost model (credits, derived from the request and byte counters). This is how the repo simulates
/// "object storage is slow and should be a last resort" (paper section 4.5)
/// without a real cloud: backends stay instant, and all timing claims are
/// read off the simulated clock.
///
/// Counters live as instruments named "<prefix>.gets", "<prefix>.puts",
/// ... in a MetricsRegistry, so a platform-wide metrics dump sees every
/// store alongside the runtime components.
///
/// Thread safety: operations may be called concurrently (instrument
/// updates are atomic; the backing store provides its own per-key
/// atomicity). metrics() reads are only meaningful when quiescent.
class MeteredObjectStore : public ObjectStore {
 public:
  /// Does not take ownership of `base`, `clock` or `registry`; all must
  /// outlive this. Instruments register under `metric_prefix`; with a
  /// null `registry` the store keeps a private one.
  MeteredObjectStore(ObjectStore* base, Clock* clock, LatencyModel latency,
                     CostModel cost = {},
                     std::string metric_prefix = "store",
                     observability::MetricsRegistry* registry = nullptr);

  Status Put(const std::string& key, Bytes data) override;
  Result<Bytes> Get(const std::string& key) const override;
  /// Charges each request's counters as Get does (a failed key as a
  /// 0-byte GET), then advances the clock once, by the batch's makespan
  /// over LatencyModel::kGetConnections connections.
  std::vector<Result<Bytes>> GetMany(
      const std::vector<std::string>& keys) const override;
  Result<uint64_t> Head(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  Result<std::vector<ObjectMeta>> List(
      const std::string& prefix) const override;

  /// Snapshot of this store's counters (by value; call again for fresh
  /// numbers).
  StoreMetrics metrics() const;

  /// Zeroes this store's instruments (other registry members untouched).
  void ResetMetrics();

  const std::string& metric_prefix() const { return metric_prefix_; }

 private:
  /// Charges one request's counters and request_micros; the clock is left
  /// to the caller. Returns the request's latency.
  uint64_t Count(StoreOp op, uint64_t nbytes) const;
  /// Count + advancing the clock by that one request.
  void Charge(StoreOp op, uint64_t nbytes) const;

  ObjectStore* base_;
  Clock* clock_;
  LatencyModel latency_;
  CostModel cost_;
  std::string metric_prefix_;
  std::unique_ptr<observability::MetricsRegistry> owned_registry_;
  observability::Counter* gets_;
  observability::Counter* puts_;
  observability::Counter* heads_;
  observability::Counter* lists_;
  observability::Counter* deletes_;
  observability::Counter* bytes_read_;
  observability::Counter* bytes_written_;
  observability::Counter* simulated_micros_;
  observability::Counter* request_micros_;
};

}  // namespace bauplan::storage

#endif  // BAUPLAN_STORAGE_METERED_STORE_H_
