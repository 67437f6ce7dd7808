#include <algorithm>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "runtime/container_manager.h"
#include "runtime/executor.h"
#include "runtime/package.h"
#include "runtime/package_cache.h"
#include "runtime/scheduler.h"
#include "runtime/spark_model.h"

namespace bauplan::runtime {
namespace {

Package MakePackage(const std::string& name, uint64_t mib) {
  return Package{name, mib * 1024 * 1024};
}

// ---------------------------------------------------------------- package

TEST(PackageRegistryTest, DeterministicAndSized) {
  PackageRegistry a(100, 1.1, 7);
  PackageRegistry b(100, 1.1, 7);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.package(3).name, b.package(3).name);
  EXPECT_EQ(a.package(3).size_bytes, b.package(3).size_bytes);
  EXPECT_GE(a.package(0).size_bytes, 64u * 1024);
}

TEST(PackageRegistryTest, PopularityIsSkewed) {
  PackageRegistry registry(1000, 1.1, 7);
  Rng rng(13);
  std::map<std::string, int> counts;
  for (int i = 0; i < 20000; ++i) {
    counts[registry.SampleByPopularity(rng).name]++;
  }
  // Rank-1 package dominates any mid-tail package.
  EXPECT_GT(counts[registry.package(0).name],
            10 * std::max(counts[registry.package(500).name], 1));
}

TEST(PackageRegistryTest, RequirementSetsAreDistinct) {
  PackageRegistry registry(50, 1.1, 7);
  Rng rng(17);
  auto set = registry.SampleRequirementSet(rng, 5);
  ASSERT_EQ(set.size(), 5u);
  for (size_t i = 0; i < set.size(); ++i) {
    for (size_t j = i + 1; j < set.size(); ++j) {
      EXPECT_NE(set[i].name, set[j].name);
    }
  }
  // Asking for more than the universe clamps.
  EXPECT_EQ(registry.SampleRequirementSet(rng, 500).size(), 50u);
}

// ------------------------------------------------------------------ cache

TEST(PackageCacheTest, MissThenHit) {
  SimClock clock;
  PackageCache cache(&clock, {});
  Package numpy = MakePackage("numpy", 20);

  uint64_t miss = cache.Fetch(numpy);
  EXPECT_EQ(cache.metrics().misses, 1);
  EXPECT_TRUE(cache.Contains("numpy"));

  uint64_t hit = cache.Fetch(numpy);
  EXPECT_EQ(cache.metrics().hits, 1);
  // Disk is orders of magnitude faster than downloading.
  EXPECT_LT(hit * 20, miss);
  EXPECT_EQ(clock.NowMicros(), miss + hit);
}

TEST(PackageCacheTest, LruEviction) {
  SimClock clock;
  PackageCache::Options options;
  options.capacity_bytes = 50ull * 1024 * 1024;
  PackageCache cache(&clock, options);
  cache.Fetch(MakePackage("a", 20));
  cache.Fetch(MakePackage("b", 20));
  cache.Fetch(MakePackage("a", 20));  // refresh a
  cache.Fetch(MakePackage("c", 20));  // evicts b (LRU)
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_GT(cache.metrics().bytes_evicted, 0u);
  EXPECT_LE(cache.used_bytes(), options.capacity_bytes);
}

TEST(PackageCacheTest, OversizedPackageNotCached) {
  SimClock clock;
  PackageCache::Options options;
  options.capacity_bytes = 1024;
  PackageCache cache(&clock, options);
  cache.Fetch(MakePackage("huge", 100));
  EXPECT_FALSE(cache.Contains("huge"));
}

TEST(PackageCacheTest, ZipfWorkloadGetsHighHitRate) {
  SimClock clock;
  PackageCache cache(&clock, {});
  PackageRegistry registry(2000, 1.1, 3);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    cache.Fetch(registry.SampleByPopularity(rng));
  }
  // The Zipf head keeps the cache hot.
  EXPECT_GT(cache.metrics().HitRate(), 0.6);
}

// -------------------------------------------------------------- container

TEST(ContainerSpecTest, KeyIsOrderInsensitive) {
  ContainerSpec a;
  a.packages = {MakePackage("x", 1), MakePackage("y", 1)};
  ContainerSpec b;
  b.packages = {MakePackage("y", 1), MakePackage("x", 1)};
  EXPECT_EQ(a.Key(), b.Key());
  ContainerSpec c;
  c.packages = {MakePackage("z", 1)};
  EXPECT_NE(a.Key(), c.Key());
}

class ContainerManagerTest : public ::testing::Test {
 protected:
  ContainerManagerTest()
      : cache_(&clock_, {}), manager_(&clock_, &cache_) {}

  ContainerSpec SpecWith(const std::string& pkg) {
    ContainerSpec spec;
    spec.packages = {MakePackage(pkg, 10)};
    return spec;
  }

  SimClock clock_;
  PackageCache cache_;
  ContainerManager manager_;
};

TEST_F(ContainerManagerTest, ColdThenFrozenResume) {
  ContainerSpec spec = SpecWith("pandas");
  auto cold = manager_.Acquire(spec);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->kind, StartKind::kCold);
  // Cold start is seconds-scale (boot + install).
  EXPECT_GT(cold->startup_micros, 1000000u);
  ASSERT_TRUE(manager_.Release(cold->container_id).ok());

  auto resume = manager_.Acquire(spec);
  ASSERT_TRUE(resume.ok());
  EXPECT_EQ(resume->kind, StartKind::kFrozenResume);
  // The paper's 300 ms.
  EXPECT_EQ(resume->startup_micros, 300000u);
  EXPECT_EQ(manager_.metrics().cold_starts, 1);
  EXPECT_EQ(manager_.metrics().frozen_resumes, 1);
}

TEST_F(ContainerManagerTest, WarmReuseIsFastest) {
  ContainerSpec spec = SpecWith("pandas");
  auto first = manager_.Acquire(spec);
  // Not released: still warm; a second acquire of the same spec would
  // create another container, but after release + resume it is warm only
  // while held. Acquire a second one: cold (no frozen available).
  auto second = manager_.Acquire(spec);
  EXPECT_EQ(second->kind, StartKind::kCold);
  ASSERT_TRUE(manager_.Release(first->container_id).ok());
  ASSERT_TRUE(manager_.Release(second->container_id).ok());
  // Now a frozen resume, then while holding it warm... warm reuse needs
  // an un-held warm container, which Release freezes; verify resume path.
  auto third = manager_.Acquire(spec);
  EXPECT_EQ(third->kind, StartKind::kFrozenResume);
}

TEST_F(ContainerManagerTest, SecondColdStartHitsPackageCache) {
  ContainerSpec spec = SpecWith("pandas");
  auto first = manager_.Acquire(spec);
  // Different spec, same package universe after clearing pool: the
  // package cache persists across containers.
  manager_.Clear();
  auto second = manager_.Acquire(spec);
  EXPECT_EQ(second->kind, StartKind::kCold);
  EXPECT_LT(second->startup_micros, first->startup_micros);
  EXPECT_EQ(cache_.metrics().hits, 1);
}

TEST_F(ContainerManagerTest, ReleaseUnknownFails) {
  EXPECT_TRUE(manager_.Release(999).IsNotFound());
}

TEST_F(ContainerManagerTest, DoubleReleaseFails) {
  auto acq = manager_.Acquire(SpecWith("x"));
  ASSERT_TRUE(manager_.Release(acq->container_id).ok());
  EXPECT_TRUE(manager_.Release(acq->container_id).IsFailedPrecondition());
}

TEST(ContainerManagerEvictionTest, PoolBounded) {
  SimClock clock;
  PackageCache cache(&clock, {});
  ContainerManager::Options options;
  options.max_containers = 3;
  ContainerManager manager(&clock, &cache, options);
  for (int i = 0; i < 6; ++i) {
    ContainerSpec spec;
    spec.packages = {MakePackage("pkg" + std::to_string(i), 5)};
    auto acq = manager.Acquire(spec);
    ASSERT_TRUE(acq.ok());
    ASSERT_TRUE(manager.Release(acq->container_id).ok());
  }
  EXPECT_LE(manager.pool_size(), 3u);
  EXPECT_GT(manager.metrics().evictions, 0);
}

// ------------------------------------------------------------------ spark

TEST(SparkModelTest, ColdClusterThenCheapJobs) {
  SimClock clock;
  SparkSessionModel spark(&clock);
  uint64_t first = spark.SubmitJob();
  uint64_t second = spark.SubmitJob();
  EXPECT_GT(first, 50ull * 1000 * 1000);  // cluster + session + submit
  EXPECT_EQ(second, 1500000u);            // just the submit
  EXPECT_EQ(spark.cold_cluster_starts(), 1);

  // Idle expiry forces a re-start.
  clock.AdvanceMicros(11ull * 60 * 1000 * 1000);
  uint64_t third = spark.SubmitJob();
  EXPECT_GT(third, 50ull * 1000 * 1000);
  EXPECT_EQ(spark.cold_cluster_starts(), 2);
}

// -------------------------------------------------------------- scheduler

TEST(SchedulerTest, LocalityPreferred) {
  SimClock clock;
  Scheduler::Options options;
  options.num_workers = 3;
  Scheduler scheduler(&clock, options);
  scheduler.RecordArtifact("trips", 2);

  auto placement = scheduler.Place("trips", 1 << 20, 1 << 20);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->worker, 2);
  EXPECT_TRUE(placement->locality_hit);
  EXPECT_EQ(placement->transfer_micros, 0u);
  EXPECT_EQ(scheduler.locality_hits(), 1);
}

TEST(SchedulerTest, MissPaysTransfer) {
  SimClock clock;
  Scheduler::Options options;
  options.num_workers = 2;
  options.locality_aware = false;  // ablation: ignore locations
  Scheduler scheduler(&clock, options);
  scheduler.RecordArtifact("trips", 1);

  uint64_t mb = 1 << 20;
  auto placement = scheduler.Place("trips", 100 * mb, mb);
  ASSERT_TRUE(placement.ok());
  EXPECT_GT(placement->transfer_micros, 0u);
  EXPECT_EQ(placement->bytes_moved, 100 * mb);
  EXPECT_EQ(scheduler.total_bytes_moved(), 100 * mb);
  EXPECT_EQ(clock.NowMicros(), placement->transfer_micros);
}

TEST(SchedulerTest, MemoryAccounting) {
  SimClock clock;
  Scheduler::Options options;
  options.num_workers = 1;
  options.worker_memory_bytes = 10ull << 30;
  Scheduler scheduler(&clock, options);

  auto a = scheduler.Place("", 0, 6ull << 30);
  ASSERT_TRUE(a.ok());
  // Vertical elasticity: a second 6 GiB function cannot fit.
  auto b = scheduler.Place("", 0, 6ull << 30);
  ASSERT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsResourceExhausted());

  ASSERT_TRUE(scheduler.ReleaseMemory(a->worker, 6ull << 30).ok());
  EXPECT_TRUE(scheduler.Place("", 0, 6ull << 30).ok());
  EXPECT_EQ(scheduler.peak_memory(0), 6ull << 30);
}

TEST(SchedulerTest, MultiInputPlacePrefersBiggestLocalBytes) {
  SimClock clock;
  Scheduler::Options options;
  options.num_workers = 3;
  Scheduler scheduler(&clock, options);
  uint64_t mb = 1 << 20;
  scheduler.RecordArtifact("small", 0);
  scheduler.RecordArtifact("big", 1);

  // Worker 1 holds 100 MiB of the inputs, worker 0 only 1 MiB: the
  // function lands on worker 1 and pays transfer for "small" alone.
  std::vector<ArtifactRef> inputs = {{"small", mb}, {"big", 100 * mb}};
  auto placement = scheduler.Place(inputs, mb);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->worker, 1);
  EXPECT_TRUE(placement->locality_hit);
  EXPECT_EQ(placement->bytes_moved, mb);
  EXPECT_GT(placement->transfer_micros, 0u);
}

TEST(SchedulerTest, WorkerTimelinesAreMonotonic) {
  SimClock clock;
  Scheduler scheduler(&clock, {});
  EXPECT_EQ(scheduler.WorkerBusyUntil(0), 0u);
  scheduler.ExtendWorkerTimeline(0, 500);
  scheduler.ExtendWorkerTimeline(0, 200);  // earlier value is ignored
  EXPECT_EQ(scheduler.WorkerBusyUntil(0), 500u);
  EXPECT_EQ(scheduler.WorkerBusyUntil(99), 0u);  // out of range: idle
}

TEST(SchedulerTest, OversizedRequestRejected) {
  SimClock clock;
  Scheduler::Options options;
  options.worker_memory_bytes = 1 << 20;
  Scheduler scheduler(&clock, options);
  EXPECT_TRUE(
      scheduler.Place("", 0, 1 << 21).status().IsResourceExhausted());
  EXPECT_TRUE(scheduler.ReleaseMemory(99, 1).IsInvalidArgument());
}

// --------------------------------------------------------------- executor

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : fork_clock_(&clock_),
        cache_(&fork_clock_, {}),
        containers_(&fork_clock_, &cache_),
        scheduler_(&fork_clock_, {}),
        executor_(&fork_clock_, &containers_, &scheduler_) {}

  FunctionRequest MakeRequest(const std::string& name) {
    FunctionRequest request;
    request.name = name;
    request.memory_bytes = 1 << 20;
    return request;
  }

  SimClock clock_;
  ForkableClock fork_clock_;
  PackageCache cache_;
  ContainerManager containers_;
  Scheduler scheduler_;
  ServerlessExecutor executor_;
};

TEST_F(ExecutorTest, SyncInvokeRunsBodyAndReports) {
  bool ran = false;
  FunctionRequest request = MakeRequest("fn");
  request.body = [&]() {
    ran = true;
    clock_.AdvanceMicros(1000);  // simulated compute
    return Status::OK();
  };
  auto report = executor_.Invoke(request);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(ran);
  EXPECT_EQ(report->body_micros, 1000u);
  EXPECT_GT(report->startup_micros, 0u);
  EXPECT_EQ(report->total_micros,
            report->startup_micros + report->transfer_micros +
                report->body_micros);
}

TEST_F(ExecutorTest, BodyFailurePropagatesButCleansUp) {
  FunctionRequest request = MakeRequest("bad");
  request.body = [] { return Status::Internal("boom"); };
  auto report = executor_.Invoke(request);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal());
  // Resources were released: a follow-up invoke succeeds.
  FunctionRequest good = MakeRequest("good");
  good.body = [] { return Status::OK(); };
  EXPECT_TRUE(executor_.Invoke(good).ok());
}

TEST_F(ExecutorTest, AsyncSubmitDrain) {
  int order = 0;
  int first_seen = -1, second_seen = -1;
  FunctionRequest a = MakeRequest("a");
  a.body = [&]() {
    first_seen = order++;
    return Status::OK();
  };
  FunctionRequest b = MakeRequest("b");
  b.body = [&]() {
    second_seen = order++;
    return Status::OK();
  };
  executor_.Submit(std::move(a));
  clock_.AdvanceMicros(500);
  executor_.Submit(std::move(b));
  EXPECT_EQ(executor_.pending(), 2u);

  clock_.AdvanceMicros(10000);  // queue wait
  auto reports = executor_.Drain();
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_EQ(first_seen, 0);
  EXPECT_EQ(second_seen, 1);
  EXPECT_GE((*reports)[0].queue_micros, 10000u);
  EXPECT_EQ(executor_.pending(), 0u);
}

TEST_F(ExecutorTest, OutputArtifactRegisteredForLocality) {
  FunctionRequest producer = MakeRequest("producer");
  producer.output_artifact = "artifact_x";
  producer.output_bytes = 1 << 20;
  producer.body = [] { return Status::OK(); };
  auto r1 = executor_.Invoke(producer);
  ASSERT_TRUE(r1.ok());

  FunctionRequest consumer = MakeRequest("consumer");
  consumer.input_artifact = "artifact_x";
  consumer.input_bytes = 1 << 20;
  consumer.body = [] { return Status::OK(); };
  auto r2 = executor_.Invoke(consumer);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->locality_hit);
  EXPECT_EQ(r2->worker, r1->worker);
  EXPECT_EQ(r2->transfer_micros, 0u);
}

TEST_F(ExecutorTest, FailedBodyRecordsNoArtifact) {
  FunctionRequest request = MakeRequest("broken_producer");
  request.output_artifact = "phantom";
  request.output_bytes = 1 << 20;
  request.body = [] { return Status::Internal("body blew up"); };
  auto report = executor_.Invoke(request);
  ASSERT_FALSE(report.ok());
  // The failed function produced nothing, so no worker may claim its
  // artifact — a phantom location would fake locality hits downstream.
  EXPECT_EQ(scheduler_.WorkerOf("phantom"), -1);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(scheduler_.used_memory(w), 0u) << "worker " << w;
  }
}

TEST(ExecutorCleanupTest, ExhaustedContainerPoolReleasesReservation) {
  SimClock clock;
  ForkableClock fork(&clock);
  PackageCache cache(&fork, {});
  ContainerManager::Options copts;
  copts.max_containers = 1;
  ContainerManager containers(&fork, &cache, copts);
  Scheduler scheduler(&fork, {});
  ServerlessExecutor executor(&fork, &containers, &scheduler);

  // Occupy the single container slot so Acquire inside Invoke fails
  // after the scheduler memory reservation was already made.
  auto held = containers.Acquire(ContainerSpec{});
  ASSERT_TRUE(held.ok());

  FunctionRequest request;
  request.name = "starved";
  request.memory_bytes = 1 << 30;
  request.body = [] { return Status::OK(); };
  auto report = executor.Invoke(request);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsResourceExhausted());
  // The reservation must not leak: every worker is back to zero.
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(scheduler.used_memory(w), 0u) << "worker " << w;
  }
  // Releasing the slot makes the same request succeed.
  ASSERT_TRUE(containers.Release(held->container_id).ok());
  EXPECT_TRUE(executor.Invoke(request).ok());
}

// ------------------------------------------------------------- wavefront

class WaveExecutorTest : public ::testing::Test {
 protected:
  WaveExecutorTest()
      : fork_clock_(&base_clock_),
        cache_(&fork_clock_, {}),
        containers_(&fork_clock_, &cache_),
        scheduler_(&fork_clock_, {}),
        executor_(&fork_clock_, &containers_, &scheduler_) {}

  FunctionRequest MakeRequest(const std::string& name,
                              uint64_t body_micros) {
    FunctionRequest request;
    request.name = name;
    request.memory_bytes = 1 << 20;
    request.body = [this, body_micros] {
      fork_clock_.AdvanceMicros(body_micros);
      return Status::OK();
    };
    return request;
  }

  SimClock base_clock_;
  ForkableClock fork_clock_;
  PackageCache cache_;
  ContainerManager containers_;
  Scheduler scheduler_;
  ServerlessExecutor executor_;
};

TEST_F(WaveExecutorTest, WaveAdvancesClockByMakespanNotSum) {
  std::vector<FunctionRequest> wave;
  for (int i = 0; i < 4; ++i) {
    wave.push_back(
        MakeRequest("fn" + std::to_string(i), 1000000));
  }
  uint64_t start = base_clock_.NowMicros();
  auto report = executor_.InvokeWave(std::move(wave), 4);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->reports.size(), 4u);
  EXPECT_TRUE(report->deferred.empty());

  uint64_t max_total = 0, sum_total = 0;
  for (const auto& r : report->reports) {
    EXPECT_EQ(r.body_micros, 1000000u);
    max_total = std::max(max_total, r.total_micros);
    sum_total += r.total_micros;
  }
  // Four independent bodies on four workers: the caller only waits the
  // longest member, not the sum of all of them.
  uint64_t elapsed = base_clock_.NowMicros() - start;
  EXPECT_EQ(elapsed, max_total);
  EXPECT_LT(elapsed, sum_total);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(scheduler_.used_memory(w), 0u) << "worker " << w;
  }
}

TEST_F(WaveExecutorTest, SameWorkerMembersSerializeOnTimeline) {
  // One worker: both members run there, so the second one's start is
  // pushed behind the first on the worker's busy-until timeline.
  Scheduler::Options opts;
  opts.num_workers = 1;
  Scheduler one_worker(&fork_clock_, opts);
  ServerlessExecutor executor(&fork_clock_, &containers_, &one_worker);

  std::vector<FunctionRequest> wave;
  wave.push_back(MakeRequest("first", 1000000));
  wave.push_back(MakeRequest("second", 1000000));
  uint64_t start = base_clock_.NowMicros();
  auto report = executor.InvokeWave(std::move(wave), 2);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->reports.size(), 2u);
  // The wave makespan covers both bodies back to back.
  uint64_t elapsed = base_clock_.NowMicros() - start;
  EXPECT_GE(elapsed, 2000000u);
  EXPECT_GE(one_worker.WorkerBusyUntil(0), base_clock_.NowMicros());
  EXPECT_EQ(one_worker.used_memory(0), 0u);
}

TEST_F(WaveExecutorTest, MembersReportWhereTheirIntervalsBegan) {
  // Parallelism 1: the members run one after another on the caller's
  // clock, each beginning no earlier than the previous one ended.
  std::vector<FunctionRequest> sequential;
  for (int i = 0; i < 3; ++i) {
    sequential.push_back(MakeRequest("seq" + std::to_string(i), 1000));
  }
  uint64_t start = base_clock_.NowMicros();
  auto seq = executor_.InvokeWave(std::move(sequential), 1);
  ASSERT_TRUE(seq.ok());
  EXPECT_FALSE(seq->forked);
  ASSERT_EQ(seq->reports.size(), 3u);
  EXPECT_EQ(seq->reports[0].begin_micros, start);
  for (size_t i = 1; i < seq->reports.size(); ++i) {
    const InvocationReport& prev = seq->reports[i - 1];
    EXPECT_GE(seq->reports[i].begin_micros,
              prev.begin_micros + prev.total_micros);
  }

  // Forked wave on one worker: the second member queues behind the
  // first and begins at wave start + its queue wait.
  Scheduler::Options opts;
  opts.num_workers = 1;
  Scheduler one_worker(&fork_clock_, opts);
  ServerlessExecutor executor(&fork_clock_, &containers_, &one_worker);
  std::vector<FunctionRequest> wave;
  wave.push_back(MakeRequest("first", 1000));
  wave.push_back(MakeRequest("second", 1000));
  uint64_t wave_start = base_clock_.NowMicros();
  auto forked = executor.InvokeWave(std::move(wave), 2);
  ASSERT_TRUE(forked.ok());
  EXPECT_TRUE(forked->forked);
  ASSERT_EQ(forked->reports.size(), 2u);
  for (const InvocationReport& report : forked->reports) {
    EXPECT_EQ(report.begin_micros, wave_start + report.queue_micros);
  }
  EXPECT_GT(forked->reports[1].queue_micros, 0u);
}

TEST_F(WaveExecutorTest, PoolExhaustionDefersInsteadOfFailing) {
  SimClock clock;
  ForkableClock fork(&clock);
  PackageCache cache(&fork, {});
  ContainerManager::Options copts;
  copts.max_containers = 1;
  ContainerManager containers(&fork, &cache, copts);
  Scheduler scheduler(&fork, {});
  ServerlessExecutor executor(&fork, &containers, &scheduler);

  std::vector<FunctionRequest> wave;
  for (int i = 0; i < 3; ++i) {
    FunctionRequest request;
    request.name = "fn" + std::to_string(i);
    request.memory_bytes = 1 << 20;
    request.body = [&fork] {
      fork.AdvanceMicros(1000);
      return Status::OK();
    };
    wave.push_back(std::move(request));
  }
  // Only one container slot: one member runs, the others bounce back as
  // deferred (still runnable) instead of failing the wave.
  auto report = executor.InvokeWave(std::move(wave), 3);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->reports.size(), 1u);
  EXPECT_EQ(report->deferred.size(), 2u);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(scheduler.used_memory(w), 0u) << "worker " << w;
  }
  // Re-dispatching the deferred members drains them.
  auto next = executor.InvokeWave(std::move(report->deferred), 3);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->reports.size(), 1u);
  EXPECT_EQ(next->deferred.size(), 1u);
}

}  // namespace
}  // namespace bauplan::runtime
