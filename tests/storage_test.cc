#include <algorithm>
#include <bit>
#include <filesystem>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "storage/latency_model.h"
#include "storage/metered_store.h"
#include "storage/object_store.h"

namespace bauplan::storage {
namespace {

Bytes Blob(const std::string& s) { return Bytes(s.begin(), s.end()); }

// Shared contract tests run against both backends.
class ObjectStoreContract
    : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "memory") {
      store_ = std::make_unique<MemoryObjectStore>();
    } else {
      tmp_ = std::filesystem::temp_directory_path() /
             ("bauplan_store_test_" + std::to_string(::getpid()));
      std::filesystem::remove_all(tmp_);
      auto opened = FileSystemObjectStore::Open(tmp_.string());
      ASSERT_TRUE(opened.ok());
      store_ = std::move(*opened);
    }
  }

  void TearDown() override {
    store_.reset();
    if (!tmp_.empty()) std::filesystem::remove_all(tmp_);
  }

  std::unique_ptr<ObjectStore> store_;
  std::filesystem::path tmp_;
};

TEST_P(ObjectStoreContract, PutGetRoundTrip) {
  ASSERT_TRUE(store_->Put("a/b/data.bpf", Blob("hello")).ok());
  auto got = store_->Get("a/b/data.bpf");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(got->begin(), got->end()), "hello");
}

TEST_P(ObjectStoreContract, GetMissingIsNotFound) {
  auto got = store_->Get("nope");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsNotFound());
}

TEST_P(ObjectStoreContract, PutOverwrites) {
  ASSERT_TRUE(store_->Put("k", Blob("one")).ok());
  ASSERT_TRUE(store_->Put("k", Blob("twotwo")).ok());
  EXPECT_EQ(*store_->Head("k"), 6u);
}

TEST_P(ObjectStoreContract, HeadReportsSizeWithoutData) {
  ASSERT_TRUE(store_->Put("k", Blob("12345")).ok());
  EXPECT_EQ(*store_->Head("k"), 5u);
  EXPECT_FALSE(store_->Head("missing").ok());
  EXPECT_TRUE(store_->Exists("k"));
  EXPECT_FALSE(store_->Exists("missing"));
}

TEST_P(ObjectStoreContract, GetManyKeepsKeyOrderAndFailsPerKey) {
  ASSERT_TRUE(store_->Put("a", Blob("first")).ok());
  ASSERT_TRUE(store_->Put("b", Blob("second")).ok());
  auto results = store_->GetMany({"b", "missing", "a"});
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0], Blob("second"));
  EXPECT_TRUE(results[1].status().IsNotFound());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(*results[2], Blob("first"));
  EXPECT_TRUE(store_->GetMany({}).empty());
}

TEST_P(ObjectStoreContract, DeleteRemoves) {
  ASSERT_TRUE(store_->Put("k", Blob("x")).ok());
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_FALSE(store_->Exists("k"));
  EXPECT_TRUE(store_->Delete("k").IsNotFound());
}

TEST_P(ObjectStoreContract, ListByPrefixSorted) {
  ASSERT_TRUE(store_->Put("t/one", Blob("1")).ok());
  ASSERT_TRUE(store_->Put("t/two", Blob("22")).ok());
  ASSERT_TRUE(store_->Put("other/x", Blob("3")).ok());
  auto listed = store_->List("t/");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0].key, "t/one");
  EXPECT_EQ((*listed)[1].key, "t/two");
  EXPECT_EQ((*listed)[1].size, 2u);

  auto all = store_->List("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
}

TEST_P(ObjectStoreContract, EmptyKeyRejected) {
  EXPECT_FALSE(store_->Put("", Blob("x")).ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, ObjectStoreContract,
                         ::testing::Values("memory", "filesystem"));

TEST(FileSystemStoreTest, RejectsTraversalKeys) {
  auto tmp = std::filesystem::temp_directory_path() / "bauplan_trav_test";
  auto store = FileSystemObjectStore::Open(tmp.string());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->Put("../escape", Blob("x")).ok());
  std::filesystem::remove_all(tmp);
}

TEST(MemoryStoreTest, Accounting) {
  MemoryObjectStore store;
  ASSERT_TRUE(store.Put("a", Blob("xx")).ok());
  ASSERT_TRUE(store.Put("b", Blob("yyy")).ok());
  EXPECT_EQ(store.object_count(), 2u);
  EXPECT_EQ(store.total_bytes(), 5u);
}

// ---------------------------------------------------------------- Latency

TEST(LatencyModelTest, GetLatencyIsFirstBytePlusTransfer) {
  LatencyModel model;  // defaults: 15 ms first byte, 90 MB/s
  EXPECT_EQ(model.MicrosFor(StoreOp::kGet, 0), 15000u);
  // 90 MB at 90 MB/s = 1 s of transfer.
  EXPECT_EQ(model.MicrosFor(StoreOp::kGet, 90ull * 1000 * 1000),
            15000u + 1000000u);
}

TEST(LatencyModelTest, InstantModelChargesNothing) {
  LatencyModel model = LatencyModel::Instant();
  for (StoreOp op : {StoreOp::kGet, StoreOp::kPut, StoreOp::kHead,
                     StoreOp::kList, StoreOp::kDelete}) {
    EXPECT_EQ(model.MicrosFor(op, 12345), 0u);
  }
}

TEST(LatencyModelTest, LocalDiskOrdersOfMagnitudeFasterThanS3) {
  LatencyModel s3;
  LatencyModel disk = LatencyModel::LocalDisk();
  uint64_t mb = 1000 * 1000;
  EXPECT_LT(disk.MicrosFor(StoreOp::kGet, mb) * 10,
            s3.MicrosFor(StoreOp::kGet, mb));
}

TEST(CostModelTest, CreditsScaleWithBytes) {
  CostModel cost;
  double small = cost.CreditsFor(1000);
  double large = cost.CreditsFor(1000ull * 1000 * 1000);
  EXPECT_GT(large, small);
  EXPECT_GT(small, 0.0);
}

// ---------------------------------------------------------------- Metered

TEST(MeteredStoreTest, ChargesClockAndCountsOps) {
  MemoryObjectStore base;
  SimClock clock;
  LatencyModel model;
  MeteredObjectStore store(&base, &clock, model);

  ASSERT_TRUE(store.Put("k", Bytes(1000, 7)).ok());
  uint64_t after_put = clock.NowMicros();
  EXPECT_GE(after_put, model.put_first_byte_micros);

  auto got = store.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_GT(clock.NowMicros(), after_put);

  const StoreMetrics& m = store.metrics();
  EXPECT_EQ(m.puts, 1);
  EXPECT_EQ(m.gets, 1);
  EXPECT_EQ(m.bytes_written, 1000);
  EXPECT_EQ(m.bytes_read, 1000);
  EXPECT_EQ(m.TotalRequests(), 2);
  EXPECT_GT(m.credits, 0.0);
  EXPECT_EQ(m.simulated_micros, clock.NowMicros());
}

TEST(MeteredStoreTest, CreditsDoNotDependOnRequestOrder) {
  // The same multiset of requests, issued from 4 threads in two different
  // interleavings, bills bit-identical credits. Summing per-request
  // credits as they land would not: the floating-point sum depends on
  // the order.
  constexpr int kThreads = 4;
  auto sizes_of = [](int thread) {
    std::vector<size_t> sizes;
    for (int i = 0; i < 25; ++i) {
      sizes.push_back(static_cast<size_t>((thread * 25 + i) * 7919 % 100003) *
                      (i % 3 == 0 ? 13 : 1));
    }
    return sizes;
  };
  auto bill = [&](bool reversed) {
    MemoryObjectStore base;
    SimClock clock;
    MeteredObjectStore store(&base, &clock, LatencyModel());
    for (int n = 0; n < kThreads; ++n) {
      const int t = reversed ? kThreads - 1 - n : n;
      std::thread worker([&, t] {
        std::vector<size_t> sizes = sizes_of(t);
        if (reversed) std::reverse(sizes.begin(), sizes.end());
        for (size_t size : sizes) {
          std::string key = "obj/" + std::to_string(t) + "/" +
                            std::to_string(size);
          EXPECT_TRUE(store.Put(key, Bytes(size, 1)).ok());
          EXPECT_TRUE(store.Get(key).ok());
        }
      });
      worker.join();
    }
    return store.metrics();
  };
  StoreMetrics forward = bill(false);
  StoreMetrics backward = bill(true);
  EXPECT_EQ(forward.TotalRequests(), 200);
  EXPECT_EQ(backward.TotalRequests(), 200);
  EXPECT_EQ(forward.bytes_written, backward.bytes_written);
  EXPECT_GT(forward.credits, 0.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(forward.credits),
            std::bit_cast<uint64_t>(backward.credits));
}

TEST(MeteredStoreTest, PassesThroughErrors) {
  MemoryObjectStore base;
  SimClock clock;
  MeteredObjectStore store(&base, &clock, LatencyModel::Instant());
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
  EXPECT_TRUE(store.Delete("missing").IsNotFound());
  EXPECT_EQ(store.metrics().gets, 1);
}

TEST(MeteredStoreTest, ResetMetrics) {
  MemoryObjectStore base;
  SimClock clock;
  MeteredObjectStore store(&base, &clock, LatencyModel::Instant());
  ASSERT_TRUE(store.Put("k", Blob("x")).ok());
  store.ResetMetrics();
  EXPECT_EQ(store.metrics().TotalRequests(), 0);
}

TEST(MeteredStoreTest, ListAndHeadCharged) {
  MemoryObjectStore base;
  SimClock clock;
  LatencyModel model;
  MeteredObjectStore store(&base, &clock, model);
  ASSERT_TRUE(store.Put("p/x", Blob("1")).ok());
  ASSERT_TRUE(store.List("p/").ok());
  ASSERT_TRUE(store.Head("p/x").ok());
  EXPECT_EQ(store.metrics().lists, 1);
  EXPECT_EQ(store.metrics().heads, 1);
  EXPECT_GE(clock.NowMicros(),
            model.put_first_byte_micros + model.list_micros +
                model.head_micros);
}

// ------------------------------------------------------------ Batched GETs

TEST(LatencyModelTest, BatchMakespanFillsTheEarliestFreeConnection) {
  LatencyModel model;
  uint64_t small = model.MicrosFor(StoreOp::kGet, 1000);
  uint64_t big = model.MicrosFor(StoreOp::kGet, 9ull * 1000 * 1000);
  EXPECT_EQ(model.GetBatchMakespan({}), 0u);
  EXPECT_EQ(model.GetBatchMakespan({1000}), small);
  // The big request holds connection 0; the ninth small one queues
  // behind a small one, never behind the big one.
  std::vector<uint64_t> sizes(9, 1000);
  sizes[0] = 9ull * 1000 * 1000;
  EXPECT_EQ(model.GetBatchMakespan(sizes), std::max(big, 2 * small));
  // Requests queue in order: the big one last lands on the connection
  // that frees first.
  sizes.assign(8, 1000);
  sizes.push_back(9ull * 1000 * 1000);
  EXPECT_EQ(model.GetBatchMakespan(sizes), small + big);
}

/// A metered store on S3-class latency; objects are seeded straight into
/// the base, so only the calls under test are charged.
struct MeteredBatch {
  MemoryObjectStore base;
  SimClock clock;
  LatencyModel model;
  MeteredObjectStore store{&base, &clock, model};

  /// Seeds `count` objects of `size` bytes; returns their keys.
  std::vector<std::string> Seed(int count, size_t size) {
    std::vector<std::string> keys;
    for (int i = 0; i < count; ++i) {
      keys.push_back("obj/" + std::to_string(i));
      EXPECT_TRUE(base.Put(keys.back(), Bytes(size, 1)).ok());
    }
    return keys;
  }
};

TEST(MeteredStoreBatchTest, EqualGetsCostOneGetPerEightConnections) {
  MeteredBatch one;
  ASSERT_TRUE(one.store.Get(one.Seed(1, 100000)[0]).ok());
  const uint64_t single = one.clock.NowMicros();
  ASSERT_GT(single, 0u);

  MeteredBatch eight;
  auto results = eight.store.GetMany(eight.Seed(8, 100000));
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  EXPECT_EQ(eight.clock.NowMicros(), single);

  MeteredBatch sixteen;
  results = sixteen.store.GetMany(sixteen.Seed(16, 100000));
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  EXPECT_EQ(sixteen.clock.NowMicros(), 2 * single);
  EXPECT_EQ(sixteen.store.metrics().simulated_micros, 2 * single);
  EXPECT_EQ(sixteen.store.metrics().request_micros, 16 * single);
}

TEST(MeteredStoreBatchTest, OneKeyBatchIsExactlyAGet) {
  MeteredBatch get;
  MeteredBatch batch;
  auto got = get.store.Get(get.Seed(1, 4321)[0]);
  auto many = batch.store.GetMany(batch.Seed(1, 4321));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(many.size(), 1u);
  ASSERT_TRUE(many[0].ok());
  EXPECT_EQ(*many[0], *got);
  EXPECT_EQ(batch.clock.NowMicros(), get.clock.NowMicros());
  StoreMetrics a = get.store.metrics();
  StoreMetrics b = batch.store.metrics();
  EXPECT_EQ(b.gets, a.gets);
  EXPECT_EQ(b.bytes_read, a.bytes_read);
  EXPECT_EQ(b.simulated_micros, a.simulated_micros);
  EXPECT_EQ(b.request_micros, a.request_micros);
  EXPECT_EQ(b.credits, a.credits);
  EXPECT_EQ(b.TotalRequests(), a.TotalRequests());
}

TEST(MeteredStoreBatchTest, EmptyBatchChargesNothing) {
  MeteredBatch batch;
  EXPECT_TRUE(batch.store.GetMany({}).empty());
  EXPECT_EQ(batch.clock.NowMicros(), 0u);
  EXPECT_EQ(batch.store.metrics().TotalRequests(), 0);
  EXPECT_EQ(batch.store.metrics().simulated_micros, 0u);
  EXPECT_EQ(batch.store.metrics().credits, 0.0);
}

TEST(MeteredStoreBatchTest, MissingKeyFailsOnlyItsOwnSlot) {
  MeteredBatch batch;
  std::vector<std::string> keys = batch.Seed(3, 500);
  keys.insert(keys.begin() + 1, "obj/missing");
  auto results = batch.store.GetMany(keys);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[1].status().IsNotFound());
  for (size_t i : {0u, 2u, 3u}) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(*results[i], Bytes(500, 1));
  }
  // The failed key is charged as a 0-byte GET.
  EXPECT_EQ(batch.store.metrics().gets, 4);
  EXPECT_EQ(batch.store.metrics().bytes_read, 1500);
  EXPECT_EQ(batch.store.metrics().request_micros,
            3 * batch.model.MicrosFor(StoreOp::kGet, 500) +
                batch.model.MicrosFor(StoreOp::kGet, 0));
}

TEST(MeteredStoreBatchTest, CountersMatchTheSameGetsIssuedOneByOne) {
  MeteredBatch serial;
  MeteredBatch batch;
  std::vector<std::string> keys;
  for (int i = 0; i < 11; ++i) {
    keys.push_back("obj/" + std::to_string(i));
    Bytes blob(static_cast<size_t>(1000 + 250000 * (i % 4)), 2);
    ASSERT_TRUE(serial.base.Put(keys.back(), blob).ok());
    ASSERT_TRUE(batch.base.Put(keys.back(), blob).ok());
  }
  for (const auto& key : keys) ASSERT_TRUE(serial.store.Get(key).ok());
  for (const auto& r : batch.store.GetMany(keys)) ASSERT_TRUE(r.ok());
  StoreMetrics a = serial.store.metrics();
  StoreMetrics b = batch.store.metrics();
  EXPECT_EQ(b.gets, a.gets);
  EXPECT_EQ(b.bytes_read, a.bytes_read);
  EXPECT_DOUBLE_EQ(b.credits, a.credits);
  EXPECT_EQ(b.request_micros, a.request_micros);
  // Serially, what is charged is every request; batched, the makespan.
  EXPECT_EQ(a.simulated_micros, a.request_micros);
  EXPECT_EQ(a.simulated_micros, serial.clock.NowMicros());
  EXPECT_EQ(b.simulated_micros, batch.clock.NowMicros());
  std::vector<uint64_t> sizes;
  for (int i = 0; i < 11; ++i) sizes.push_back(1000 + 250000 * (i % 4));
  EXPECT_EQ(b.simulated_micros, batch.model.GetBatchMakespan(sizes));
  EXPECT_LT(b.simulated_micros, a.simulated_micros);
}

}  // namespace
}  // namespace bauplan::storage
