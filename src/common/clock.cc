#include "common/clock.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>
#include <vector>

namespace bauplan {

namespace {

/// One active fork of a ForkableClock on this thread. A stack supports
/// nesting (a forked body that itself dispatches a wave degrades to the
/// sequential path, but bookkeeping stays well-defined either way).
struct ClockFork {
  const void* owner;
  uint64_t now;
};

thread_local std::vector<ClockFork> tls_clock_forks;

ClockFork* TopForkOf(const void* owner) {
  if (tls_clock_forks.empty()) return nullptr;
  ClockFork& top = tls_clock_forks.back();
  return top.owner == owner ? &top : nullptr;
}

}  // namespace

uint64_t ForkableClock::NowMicros() const {
  const ClockFork* fork = TopForkOf(this);
  return fork != nullptr ? fork->now : base_->NowMicros();
}

void ForkableClock::AdvanceMicros(uint64_t micros) {
  ClockFork* fork = TopForkOf(this);
  if (fork != nullptr) {
    fork->now += micros;
  } else {
    base_->AdvanceMicros(micros);
  }
}

void ForkableClock::BeginFork(uint64_t start_micros) {
  tls_clock_forks.push_back(ClockFork{this, start_micros});
}

uint64_t ForkableClock::EndFork() {
  ClockFork* fork = TopForkOf(this);
  if (fork == nullptr) return base_->NowMicros();  // unbalanced; degrade
  uint64_t end = fork->now;
  tls_clock_forks.pop_back();
  return end;
}

bool ForkableClock::ForkActive() const { return TopForkOf(this) != nullptr; }

std::vector<uint64_t> ForkableClock::RunForked(
    const std::vector<uint64_t>& start_micros, int parallelism,
    const std::function<void(size_t)>& member) {
  const size_t n = start_micros.size();
  std::vector<uint64_t> elapsed(n, 0);
  std::atomic<size_t> next{0};
  auto drain = [&]() {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      BeginFork(start_micros[i]);
      member(i);
      elapsed[i] = EndFork() - start_micros[i];
    }
  };
  size_t threads = std::min<size_t>(
      static_cast<size_t>(std::max(parallelism, 1)), n);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(drain);
  for (std::thread& thread : pool) thread.join();
  return elapsed;
}

uint64_t WallClock::NowMicros() const {
  auto now = std::chrono::system_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
}

void WallClock::AdvanceMicros(uint64_t /*micros*/) {
  // Wall time advances by itself; simulated delays are tracked by the
  // latency models, not by sleeping.
}

std::string FormatTimestampMicros(uint64_t epoch_micros) {
  std::time_t secs = static_cast<std::time_t>(epoch_micros / 1000000);
  std::tm tm_utc;
  gmtime_r(&secs, &tm_utc);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec);
  return buf;
}

}  // namespace bauplan
