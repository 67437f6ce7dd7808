#include "storage/metered_store.h"

namespace bauplan::storage {

MeteredObjectStore::MeteredObjectStore(
    ObjectStore* base, Clock* clock, LatencyModel latency, CostModel cost,
    std::string metric_prefix, observability::MetricsRegistry* registry)
    : base_(base),
      clock_(clock),
      latency_(latency),
      cost_(cost),
      metric_prefix_(std::move(metric_prefix)) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<observability::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  gets_ = registry->GetCounter(metric_prefix_ + ".gets");
  puts_ = registry->GetCounter(metric_prefix_ + ".puts");
  heads_ = registry->GetCounter(metric_prefix_ + ".heads");
  lists_ = registry->GetCounter(metric_prefix_ + ".lists");
  deletes_ = registry->GetCounter(metric_prefix_ + ".deletes");
  bytes_read_ = registry->GetCounter(metric_prefix_ + ".bytes_read");
  bytes_written_ = registry->GetCounter(metric_prefix_ + ".bytes_written");
  simulated_micros_ =
      registry->GetCounter(metric_prefix_ + ".simulated_micros");
  request_micros_ = registry->GetCounter(metric_prefix_ + ".request_micros");
}

StoreMetrics MeteredObjectStore::metrics() const {
  StoreMetrics snapshot;
  snapshot.gets = gets_->Value();
  snapshot.puts = puts_->Value();
  snapshot.heads = heads_->Value();
  snapshot.lists = lists_->Value();
  snapshot.deletes = deletes_->Value();
  snapshot.bytes_read = bytes_read_->Value();
  snapshot.bytes_written = bytes_written_->Value();
  snapshot.simulated_micros =
      static_cast<uint64_t>(simulated_micros_->Value());
  snapshot.request_micros = static_cast<uint64_t>(request_micros_->Value());
  // Derived from the integer totals rather than summed per request, so
  // the value does not depend on the order concurrent requests landed in.
  // DELETEs are free.
  snapshot.credits =
      static_cast<double>(snapshot.gets + snapshot.puts + snapshot.heads +
                          snapshot.lists) *
          cost_.credits_per_request +
      static_cast<double>(snapshot.bytes_read + snapshot.bytes_written) *
          cost_.credits_per_byte;
  return snapshot;
}

void MeteredObjectStore::ResetMetrics() {
  gets_->Reset();
  puts_->Reset();
  heads_->Reset();
  lists_->Reset();
  deletes_->Reset();
  bytes_read_->Reset();
  bytes_written_->Reset();
  simulated_micros_->Reset();
  request_micros_->Reset();
}

void MeteredObjectStore::Charge(StoreOp op, uint64_t nbytes) const {
  uint64_t micros = Count(op, nbytes);
  clock_->AdvanceMicros(micros);
  simulated_micros_->Increment(static_cast<int64_t>(micros));
}

uint64_t MeteredObjectStore::Count(StoreOp op, uint64_t nbytes) const {
  uint64_t micros = latency_.MicrosFor(op, nbytes);
  request_micros_->Increment(static_cast<int64_t>(micros));
  switch (op) {
    case StoreOp::kGet:
      gets_->Increment();
      bytes_read_->Increment(static_cast<int64_t>(nbytes));
      break;
    case StoreOp::kPut:
      puts_->Increment();
      bytes_written_->Increment(static_cast<int64_t>(nbytes));
      break;
    case StoreOp::kHead:
      heads_->Increment();
      break;
    case StoreOp::kList:
      lists_->Increment();
      break;
    case StoreOp::kDelete:
      deletes_->Increment();
      break;
  }
  return micros;
}

Status MeteredObjectStore::Put(const std::string& key, Bytes data) {
  Charge(StoreOp::kPut, data.size());
  return base_->Put(key, std::move(data));
}

Result<Bytes> MeteredObjectStore::Get(const std::string& key) const {
  Result<Bytes> result = base_->Get(key);
  Charge(StoreOp::kGet, result.ok() ? result->size() : 0);
  return result;
}

std::vector<Result<Bytes>> MeteredObjectStore::GetMany(
    const std::vector<std::string>& keys) const {
  std::vector<Result<Bytes>> results = base_->GetMany(keys);
  std::vector<uint64_t> sizes;
  sizes.reserve(results.size());
  for (const auto& result : results) {
    sizes.push_back(result.ok() ? result->size() : 0);
    Count(StoreOp::kGet, sizes.back());
  }
  uint64_t makespan = latency_.GetBatchMakespan(sizes);
  clock_->AdvanceMicros(makespan);
  simulated_micros_->Increment(static_cast<int64_t>(makespan));
  return results;
}

Result<uint64_t> MeteredObjectStore::Head(const std::string& key) const {
  Charge(StoreOp::kHead, 0);
  return base_->Head(key);
}

Status MeteredObjectStore::Delete(const std::string& key) {
  Charge(StoreOp::kDelete, 0);
  return base_->Delete(key);
}

Result<std::vector<ObjectMeta>> MeteredObjectStore::List(
    const std::string& prefix) const {
  Charge(StoreOp::kList, 0);
  return base_->List(prefix);
}

}  // namespace bauplan::storage
