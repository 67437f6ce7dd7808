#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "observability/metrics.h"
#include "observability/trace.h"

namespace bauplan::observability {
namespace {

// ------------------------------------------------------------------ tracer

TEST(TracerTest, NestedSpansExtractDepthFirst) {
  SimClock clock(1000);
  Tracer tracer(&clock);

  uint64_t run = tracer.StartSpan("run", span_kind::kRun);
  clock.AdvanceMicros(10);
  uint64_t wave = tracer.StartSpan("wave_0", span_kind::kWave, run);
  clock.AdvanceMicros(5);
  uint64_t node = tracer.StartSpan("trips", span_kind::kNode, wave);
  clock.AdvanceMicros(20);
  tracer.EndSpan(node);
  tracer.EndSpan(wave);
  clock.AdvanceMicros(15);
  tracer.EndSpan(run);

  Trace trace = tracer.ExtractTrace(run);
  // Extraction removes the subtree from the tracer.
  EXPECT_EQ(tracer.span_count(), 0u);

  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.root_id, 1u);
  // Depth-first renumbering from 1: run -> wave -> node.
  EXPECT_EQ(trace.spans[0].name, "run");
  EXPECT_EQ(trace.spans[0].id, 1u);
  EXPECT_EQ(trace.spans[0].parent_id, 0u);
  EXPECT_EQ(trace.spans[1].name, "wave_0");
  EXPECT_EQ(trace.spans[1].parent_id, 1u);
  EXPECT_EQ(trace.spans[2].name, "trips");
  EXPECT_EQ(trace.spans[2].parent_id, 2u);

  EXPECT_EQ(trace.TotalMicros(), 50u);
  EXPECT_EQ(trace.SumByKind(span_kind::kNode), 20u);
  ASSERT_EQ(trace.ChildrenOf(1).size(), 1u);
  EXPECT_EQ(trace.ChildrenOf(1)[0]->name, "wave_0");
}

TEST(TracerTest, ChildrenCanonicalizedByStartTime) {
  SimClock clock(0);
  Tracer tracer(&clock);
  uint64_t root = tracer.StartSpan("run", span_kind::kRun);
  // Registered out of schedule order, as parallel wave bodies would.
  uint64_t late = tracer.StartSpanAt("late", span_kind::kNode, root, 300);
  uint64_t early = tracer.StartSpanAt("early", span_kind::kNode, root, 100);
  tracer.EndSpanAt(late, 400);
  tracer.EndSpanAt(early, 200);
  tracer.EndSpanAt(root, 400);

  Trace trace = tracer.ExtractTrace(root);
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[1].name, "early");
  EXPECT_EQ(trace.spans[2].name, "late");
}

TEST(TracerTest, ShiftDescendantsMovesSubtreeNotRoot) {
  SimClock clock(0);
  Tracer tracer(&clock);
  uint64_t node = tracer.StartSpanAt("node", span_kind::kNode, 0, 100);
  uint64_t sql = tracer.StartSpanAt("sql", span_kind::kSql, node, 110);
  uint64_t spill = tracer.StartSpanAt("put", span_kind::kSpill, sql, 120);
  tracer.EndSpanAt(spill, 130);
  tracer.EndSpanAt(sql, 140);
  tracer.EndSpanAt(node, 150);

  tracer.ShiftDescendants(node, 40);
  Trace trace = tracer.ExtractTrace(node);
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[0].start_micros, 100u);  // root unmoved
  EXPECT_EQ(trace.spans[1].start_micros, 150u);  // sql
  EXPECT_EQ(trace.spans[1].end_micros, 180u);
  EXPECT_EQ(trace.spans[2].start_micros, 160u);  // spill, shifted once
  EXPECT_EQ(trace.spans[2].end_micros, 170u);
}

TEST(TracerTest, ScopedSpanToleratesNullTracer) {
  ScopedSpan span(nullptr, "noop", span_kind::kSql);
  EXPECT_EQ(span.id(), 0u);
}

TEST(TracerTest, ConcurrentSpanCreationIsSafe) {
  SimClock clock(0);
  Tracer tracer(&clock);
  uint64_t root = tracer.StartSpan("run", span_kind::kRun);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, root, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        uint64_t id = tracer.StartSpanAt(
            "body_" + std::to_string(t), span_kind::kSql, root,
            static_cast<uint64_t>(i));
        tracer.AddAttribute(id, "thread", std::to_string(t));
        tracer.EndSpanAt(id, static_cast<uint64_t>(i + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Trace trace = tracer.ExtractTrace(root);
  EXPECT_EQ(trace.spans.size(), 1u + kThreads * kSpansPerThread);
  EXPECT_EQ(trace.SumByKind(span_kind::kSql),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
}

// ------------------------------------------------------------ trace JSON

TEST(TraceJsonTest, GoldenRendering) {
  SimClock clock(100);
  Tracer tracer(&clock);
  uint64_t run = tracer.StartSpan("run", span_kind::kRun);
  clock.AdvanceMicros(10);
  uint64_t sql = tracer.StartSpan("trips", span_kind::kSql, run);
  tracer.AddAttribute(sql, "worker", "0");
  clock.AdvanceMicros(30);
  tracer.EndSpan(sql);
  tracer.EndSpan(run);
  Trace trace = tracer.ExtractTrace(run);

  EXPECT_EQ(
      trace.ToJson(),
      "{\"version\":2,\"root_id\":1,\"spans\":["
      "{\"id\":1,\"parent_id\":0,\"name\":\"run\",\"kind\":\"run\","
      "\"start_micros\":100,\"end_micros\":140,\"duration_micros\":40},"
      "{\"id\":2,\"parent_id\":1,\"name\":\"trips\",\"kind\":\"sql\","
      "\"start_micros\":110,\"end_micros\":140,\"duration_micros\":30,"
      "\"attributes\":{\"worker\":\"0\"}}]}");
}

TEST(TraceJsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(EscapeJson("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(EscapeJson(std::string(1, '\x01')), "\\u0001");
}

// ----------------------------------------------------------------- metrics

TEST(MetricsRegistryTest, SameNameSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("scheduler.placements");
  Counter* b = registry.GetCounter("scheduler.placements");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->Value(), 3);
  EXPECT_EQ(registry.instrument_count(), 1u);
}

TEST(MetricsRegistryTest, SnapshotFlattensAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(2);
  registry.GetGauge("g")->Set(7);
  registry.GetHistogram("h")->Observe(10);
  registry.GetHistogram("h")->Observe(30);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Get("c"), 2.0);
  EXPECT_EQ(snapshot.Get("g"), 7.0);
  EXPECT_EQ(snapshot.Get("h.count"), 2.0);
  EXPECT_EQ(snapshot.Get("h.sum"), 40.0);
  EXPECT_EQ(snapshot.Get("h.min"), 10.0);
  EXPECT_EQ(snapshot.Get("h.max"), 30.0);
  EXPECT_EQ(snapshot.Get("missing", -1.0), -1.0);

  EXPECT_EQ(snapshot.ToJson(),
            "{\"c\":2,\"g\":7,\"h.count\":2,\"h.max\":30,"
            "\"h.min\":10,\"h.sum\":40}");
  EXPECT_EQ(snapshot.ToText(),
            "c 2\ng 7\nh.count 2\nh.max 30\nh.min 10\nh.sum 40\n");
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistration) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(5);
  registry.GetHistogram("h")->Observe(9);
  registry.Reset();
  EXPECT_EQ(registry.instrument_count(), 2u);
  EXPECT_EQ(registry.GetCounter("c")->Value(), 0);
  EXPECT_EQ(registry.GetHistogram("h")->GetSnapshot().count, 0);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUpdates) {
  // Hammered from many threads: registration races, lock-free updates,
  // and snapshots taken mid-flight. TSan is the real assertion here.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIters; ++i) {
        registry.GetCounter("shared.counter")->Increment();
        registry.GetCounter("thread." + std::to_string(t))->Increment();
        registry.GetGauge("shared.peak")->SetMax(i);
        registry.GetHistogram("shared.latency")->Observe(
            static_cast<uint64_t>(i));
      }
    });
  }
  std::thread snapshotter([&registry] {
    for (int i = 0; i < 50; ++i) {
      MetricsSnapshot snapshot = registry.Snapshot();
      EXPECT_GE(snapshot.Get("shared.counter"), 0.0);
    }
  });
  for (auto& thread : threads) thread.join();
  snapshotter.join();

  EXPECT_EQ(registry.GetCounter("shared.counter")->Value(),
            kThreads * kIters);
  EXPECT_EQ(registry.GetHistogram("shared.latency")->GetSnapshot().count,
            kThreads * kIters);
  EXPECT_EQ(registry.GetGauge("shared.peak")->Value(), kIters - 1);
}

}  // namespace
}  // namespace bauplan::observability
