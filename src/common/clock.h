#ifndef BAUPLAN_COMMON_CLOCK_H_
#define BAUPLAN_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace bauplan {

/// Time source abstraction. Production components take a Clock* so that the
/// serverless-runtime and object-storage simulators can run on virtual time
/// (deterministic, instant) while examples and the CLI run on wall time.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Microseconds since an arbitrary epoch.
  virtual uint64_t NowMicros() const = 0;

  /// Advances time by `micros`. On a wall clock this sleeps (bounded); on a
  /// simulated clock it advances virtual time instantly.
  virtual void AdvanceMicros(uint64_t micros) = 0;
};

/// Virtual clock: time only moves when AdvanceMicros is called. All bench
/// and test latencies are measured on this clock so results are exact and
/// deterministic. Reads and advances are atomic so helper threads (e.g.
/// the parallel scan decoder) may observe it without racing.
class SimClock : public Clock {
 public:
  explicit SimClock(uint64_t start_micros = 0) : now_(start_micros) {}

  uint64_t NowMicros() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void AdvanceMicros(uint64_t micros) override {
    now_.fetch_add(micros, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_;
};

/// Wraps a base clock with per-thread forked timelines, the substrate of
/// the parallel wavefront executor: while a fork is active on the calling
/// thread, NowMicros/AdvanceMicros operate on a thread-private virtual
/// time and the base clock is untouched, so concurrent function bodies
/// each accumulate their own latency instead of summing onto one global
/// clock. Threads without an active fork pass straight through to the
/// base, which keeps every sequential code path byte-for-byte identical.
class ForkableClock : public Clock {
 public:
  /// Does not own `base`.
  explicit ForkableClock(Clock* base) : base_(base) {}

  uint64_t NowMicros() const override;
  void AdvanceMicros(uint64_t micros) override;

  /// Starts a thread-private timeline at `start_micros`. Forks nest: an
  /// inner fork shadows the outer one until its EndFork.
  void BeginFork(uint64_t start_micros);

  /// Ends the innermost fork on this thread, returning its final virtual
  /// time. The elapsed fork time is NOT propagated to the base clock —
  /// the caller decides what (e.g. the max over parallel branches) to
  /// charge.
  uint64_t EndFork();

  /// True when the calling thread currently runs on a fork of this clock.
  bool ForkActive() const;

  /// Runs member(0) .. member(n-1), n = start_micros.size(), on up to
  /// `parallelism` threads, member i on its own fork starting at
  /// start_micros[i], and returns each member's elapsed fork time in
  /// index order. Like EndFork, it leaves the base clock alone: the
  /// caller charges what the members cost together (e.g. the longest).
  /// A member's elapsed time is what it charged itself, so the result
  /// does not depend on the pool size or on thread timing.
  std::vector<uint64_t> RunForked(const std::vector<uint64_t>& start_micros,
                                  int parallelism,
                                  const std::function<void(size_t)>& member);

 private:
  Clock* base_;
};

/// Wall clock (microseconds since the Unix epoch); AdvanceMicros is a no-op (the
/// simulation layers must not actually sleep in-process).
class WallClock : public Clock {
 public:
  uint64_t NowMicros() const override;
  void AdvanceMicros(uint64_t micros) override;
};

/// Scoped stopwatch over a Clock.
class Stopwatch {
 public:
  explicit Stopwatch(const Clock* clock)
      : clock_(clock), start_(clock->NowMicros()) {}

  uint64_t ElapsedMicros() const { return clock_->NowMicros() - start_; }
  void Reset() { start_ = clock_->NowMicros(); }

 private:
  const Clock* clock_;
  uint64_t start_;
};

/// Renders an epoch-micros timestamp as "YYYY-MM-DDTHH:MM:SSZ" (UTC).
std::string FormatTimestampMicros(uint64_t epoch_micros);

}  // namespace bauplan

#endif  // BAUPLAN_COMMON_CLOCK_H_
