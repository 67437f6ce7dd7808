#ifndef BAUPLAN_STORAGE_LATENCY_MODEL_H_
#define BAUPLAN_STORAGE_LATENCY_MODEL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace bauplan::storage {

/// Kind of store operation being modeled.
enum class StoreOp { kGet, kPut, kHead, kList, kDelete };

/// Deterministic latency model of a cloud object store (S3-class service).
/// latency = first_byte + payload / throughput. Defaults are calibrated to
/// published S3 characteristics: ~15-30 ms first byte, ~90 MB/s per
/// connection.
struct LatencyModel {
  uint64_t get_first_byte_micros = 15000;
  uint64_t put_first_byte_micros = 30000;
  uint64_t head_micros = 8000;
  uint64_t list_micros = 25000;
  uint64_t delete_micros = 10000;
  /// Streaming throughput for both directions.
  uint64_t bytes_per_second = 90ull * 1000 * 1000;

  /// Modeled duration of `op` moving `nbytes` of payload.
  uint64_t MicrosFor(StoreOp op, uint64_t nbytes) const {
    uint64_t transfer =
        bytes_per_second == 0 ? 0 : nbytes * 1000000 / bytes_per_second;
    switch (op) {
      case StoreOp::kGet:
        return get_first_byte_micros + transfer;
      case StoreOp::kPut:
        return put_first_byte_micros + transfer;
      case StoreOp::kHead:
        return head_micros;
      case StoreOp::kList:
        return list_micros;
      case StoreOp::kDelete:
        return delete_micros;
    }
    return 0;
  }

  /// Modeled duration of a batch of GETs of `sizes` issued concurrently
  /// over kGetConnections connections: requests go in order to the
  /// earliest-free connection (ties to the lowest index), and the batch
  /// ends when its last connection does. One request costs exactly
  /// MicrosFor(kGet, size); an empty batch costs nothing.
  uint64_t GetBatchMakespan(const std::vector<uint64_t>& sizes) const {
    std::array<uint64_t, kGetConnections> free_at{};
    for (uint64_t size : sizes) {
      uint64_t* earliest = std::min_element(free_at.begin(), free_at.end());
      *earliest += MicrosFor(StoreOp::kGet, size);
    }
    return *std::max_element(free_at.begin(), free_at.end());
  }

  /// Connections a batched read spreads over: Arrow's default I/O pool
  /// size. S3 scales throughput per connection, so each one streams at
  /// bytes_per_second.
  static constexpr size_t kGetConnections = 8;

  /// An instant model (all zeros) for tests that do not exercise latency.
  static LatencyModel Instant() { return {0, 0, 0, 0, 0, 0}; }

  /// A model of local NVMe disk, used for the container package cache:
  /// ~100 us access, ~2 GB/s.
  static LatencyModel LocalDisk() {
    return {100, 150, 20, 50, 50, 2ull * 1000 * 1000 * 1000};
  }
};

/// Credit-based cost model in the style of warehouse billing: queries pay
/// per byte scanned plus a per-request fee. Values are "credits"
/// (dimensionless); the Fig. 1 (right) bench reports relative shares, which
/// are unit-free.
struct CostModel {
  /// Credits per byte moved out of storage (scan cost).
  double credits_per_byte = 5.0 / (1ull << 40);  // "5 credits per TiB"
  double credits_per_request = 4e-7;

  double CreditsFor(uint64_t nbytes) const {
    return credits_per_request +
           credits_per_byte * static_cast<double>(nbytes);
  }
};

}  // namespace bauplan::storage

#endif  // BAUPLAN_STORAGE_LATENCY_MODEL_H_
