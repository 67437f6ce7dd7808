#include <string>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "storage/fault_injection_store.h"
#include "storage/object_store.h"

namespace bauplan::catalog {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto opened = Catalog::Open(&store_, &clock_);
    ASSERT_TRUE(opened.ok());
    catalog_ = std::make_unique<Catalog>(*opened);
  }

  Result<std::string> Commit(const std::string& branch,
                             const std::string& table,
                             const std::string& key) {
    TableChanges changes;
    changes.puts[table] = key;
    return catalog_->CommitChanges(branch, "set " + table, "tester",
                                   changes);
  }

  /// Publishes `table` = `key` onto `pin` and installs it on `branch`,
  /// as a run does.
  Result<MergeResult> Publish(const PinnedTables& pin,
                              const std::string& branch,
                              const std::string& table,
                              const std::string& key) {
    TableChanges changes;
    changes.puts[table] = key;
    return catalog_->CommitOnto(pin, branch, "run: " + table, "tester",
                                changes);
  }

  /// Every branch and tag head.
  std::vector<std::string> RefHeads() {
    std::vector<std::string> heads;
    for (const char* kind : {"branch", "tag"}) {
      auto refs = store_.List(std::string("catalog/refs/") + kind + "/");
      EXPECT_TRUE(refs.ok());
      for (const auto& ref : *refs) {
        Bytes id = *store_.Get(ref.key);
        heads.emplace_back(id.begin(), id.end());
      }
    }
    return heads;
  }

  storage::MemoryObjectStore store_;
  SimClock clock_{1000};
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(CatalogTest, FreshCatalogHasMainWithRootCommit) {
  EXPECT_TRUE(catalog_->HasBranch("main"));
  auto log = catalog_->Log("main");
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 1u);
  EXPECT_EQ((*log)[0].parent_id, "");
  auto tables = catalog_->GetTables("main");
  ASSERT_TRUE(tables.ok());
  EXPECT_TRUE(tables->empty());
}

TEST_F(CatalogTest, ReopenSeesExistingState) {
  ASSERT_TRUE(Commit("main", "taxi", "meta/v1").ok());
  auto reopened = Catalog::Open(&store_, &clock_);
  ASSERT_TRUE(reopened.ok());
  auto key = reopened->GetTable("main", "taxi");
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, "meta/v1");
}

TEST_F(CatalogTest, CommitAdvancesBranchAndKeepsHistory) {
  auto c1 = Commit("main", "taxi", "meta/v1");
  ASSERT_TRUE(c1.ok());
  auto c2 = Commit("main", "taxi", "meta/v2");
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c1, *c2);

  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "meta/v2");
  // Old commit still readable by id (time travel).
  EXPECT_EQ(*catalog_->GetTable(*c1, "taxi"), "meta/v1");

  auto log = catalog_->Log("main");
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 3u);
  EXPECT_EQ((*log)[0].id, *c2);
  EXPECT_EQ((*log)[1].id, *c1);
}

TEST_F(CatalogTest, CommitDeletesTable) {
  ASSERT_TRUE(Commit("main", "taxi", "meta/v1").ok());
  TableChanges changes;
  changes.deletes.push_back("taxi");
  ASSERT_TRUE(
      catalog_->CommitChanges("main", "drop taxi", "tester", changes).ok());
  EXPECT_TRUE(catalog_->GetTable("main", "taxi").status().IsNotFound());
  // Deleting a missing table fails.
  EXPECT_FALSE(
      catalog_->CommitChanges("main", "drop again", "tester", changes).ok());
}

TEST_F(CatalogTest, OptimisticConcurrencyConflict) {
  // Two writers pin the same head of main and change the same table.
  ASSERT_TRUE(Commit("main", "a", "k0").ok());
  PinnedTables first = catalog_->Pin(RefSpec("main"));
  PinnedTables second = catalog_->Pin(RefSpec("main"));
  auto won = Publish(first, "main", "a", "k1");
  ASSERT_TRUE(won.ok()) << won.status().ToString();
  EXPECT_TRUE(won->fast_forward);
  // The second one computed its commit against a head main has left.
  auto lost = Publish(second, "main", "a", "k2");
  ASSERT_FALSE(lost.ok());
  EXPECT_TRUE(lost.status().IsConflict()) << lost.status().ToString();
  EXPECT_EQ(*catalog_->GetTable("main", "a"), "k1");
  // Re-pinned on the new head, it succeeds.
  auto retried =
      Publish(catalog_->Pin(RefSpec("main")), "main", "a", "k2");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(retried->fast_forward);
  EXPECT_EQ(*catalog_->GetTable("main", "a"), "k2");
}

TEST_F(CatalogTest, BranchesAreIsolated) {
  ASSERT_TRUE(Commit("main", "taxi", "meta/v1").ok());
  ASSERT_TRUE(catalog_->CreateBranch("feat_1", "main").ok());
  ASSERT_TRUE(Commit("feat_1", "taxi", "meta/v2").ok());
  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "meta/v1");
  EXPECT_EQ(*catalog_->GetTable("feat_1", "taxi"), "meta/v2");
}

TEST_F(CatalogTest, BranchRules) {
  EXPECT_FALSE(catalog_->CreateBranch("", "main").ok());
  ASSERT_TRUE(catalog_->CreateBranch("dev", "main").ok());
  EXPECT_TRUE(catalog_->CreateBranch("dev", "main").IsAlreadyExists());
  EXPECT_TRUE(catalog_->CreateBranch("x", "no_such_ref").IsNotFound());
  EXPECT_TRUE(catalog_->DeleteBranch("main").IsFailedPrecondition());
  EXPECT_TRUE(catalog_->DeleteBranch("dev").ok());
  EXPECT_TRUE(catalog_->DeleteBranch("dev").IsNotFound());

  auto branches = catalog_->ListBranches();
  ASSERT_TRUE(branches.ok());
  ASSERT_EQ(branches->size(), 1u);
  EXPECT_EQ((*branches)[0], "main");
}

TEST_F(CatalogTest, TagsResolveButAreImmutableRefs) {
  auto c1 = Commit("main", "taxi", "meta/v1");
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(catalog_->CreateTag("release-1", "main").ok());
  ASSERT_TRUE(Commit("main", "taxi", "meta/v2").ok());
  // Tag still points at v1.
  EXPECT_EQ(*catalog_->GetTable("release-1", "taxi"), "meta/v1");
  EXPECT_TRUE(catalog_->CreateTag("release-1", "main").IsAlreadyExists());
}

TEST_F(CatalogTest, ResolveRefKinds) {
  auto c1 = Commit("main", "t", "k");
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(*catalog_->ResolveRef("main"), *c1);
  EXPECT_EQ(*catalog_->ResolveRef(*c1), *c1);
  EXPECT_TRUE(catalog_->ResolveRef("bogus").status().IsNotFound());
}

TEST_F(CatalogTest, CommitShapedNamesAreOnlyCommitIds) {
  auto c1 = Commit("main", "t", "k");
  ASSERT_TRUE(c1.ok());
  // A branch or tag with a commit id's shape would shadow a commit.
  EXPECT_TRUE(catalog_->CreateBranch("0123456789abcdef", "main")
                  .IsInvalidArgument());
  EXPECT_TRUE(catalog_->CreateTag(*c1, "main").IsInvalidArgument());
  // Other hex-ish names are ordinary names.
  EXPECT_TRUE(catalog_->CreateBranch("0123456789ABCDEF", "main").ok());
  EXPECT_TRUE(catalog_->CreateBranch("0123456789abcdef0", "main").ok());
  // An unknown commit id is NotFound; a known one pins its table map.
  EXPECT_TRUE(
      catalog_->ResolveRef("fedcba9876543210").status().IsNotFound());
  PinnedTables pinned = catalog_->Pin(*c1);
  ASSERT_TRUE(pinned.tables().ok());
  EXPECT_EQ(pinned.commit_id(), *c1);
  EXPECT_EQ(*pinned.GetTable("t"), "k");
  EXPECT_TRUE(catalog_->Pin("fedcba9876543210").tables().status()
                  .IsNotFound());
}

TEST_F(CatalogTest, FastForwardMerge) {
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  auto c = Commit("feat", "taxi", "meta/v1");
  ASSERT_TRUE(c.ok());
  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->fast_forward);
  EXPECT_EQ(merged->commit_id, *c);
  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "meta/v1");
}

TEST_F(CatalogTest, MergeAlreadyMergedIsNoop) {
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  auto head = catalog_->ResolveRef("main");
  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->fast_forward);
  EXPECT_EQ(merged->commit_id, *head);
}

TEST_F(CatalogTest, MergeSourceBehindTargetIsNoop) {
  ASSERT_TRUE(Commit("main", "taxi", "meta/v1").ok());
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  ASSERT_TRUE(Commit("main", "taxi", "meta/v2").ok());
  ASSERT_TRUE(Commit("main", "zones", "zones/v1").ok());
  auto head = catalog_->ResolveRef("main");
  ASSERT_TRUE(head.ok());
  size_t objects_before = store_.object_count();

  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->fast_forward);
  EXPECT_EQ(merged->commit_id, *head);
  // Nothing written: no merge commit, main unmoved.
  EXPECT_EQ(store_.object_count(), objects_before);
  EXPECT_EQ(*catalog_->ResolveRef("main"), *head);
  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "meta/v2");
}

TEST_F(CatalogTest, ThreeWayMergeDisjointChanges) {
  ASSERT_TRUE(Commit("main", "base_table", "base/v1").ok());
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  ASSERT_TRUE(Commit("feat", "feat_table", "feat/v1").ok());
  ASSERT_TRUE(Commit("main", "main_table", "main/v1").ok());

  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_TRUE(merged.ok());
  EXPECT_FALSE(merged->fast_forward);
  EXPECT_EQ(*catalog_->GetTable("main", "base_table"), "base/v1");
  EXPECT_EQ(*catalog_->GetTable("main", "feat_table"), "feat/v1");
  EXPECT_EQ(*catalog_->GetTable("main", "main_table"), "main/v1");
  // Merge commit records both parents.
  auto log = catalog_->Log("main", 1);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE((*log)[0].merge_parent_id.empty());
}

TEST_F(CatalogTest, ThreeWayMergeConflict) {
  ASSERT_TRUE(Commit("main", "taxi", "base").ok());
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  ASSERT_TRUE(Commit("feat", "taxi", "theirs").ok());
  ASSERT_TRUE(Commit("main", "taxi", "ours").ok());
  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_FALSE(merged.ok());
  EXPECT_TRUE(merged.status().IsConflict());
  // Target branch unchanged after a failed merge.
  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "ours");
}

TEST_F(CatalogTest, ThreeWayMergeDeletionPropagates) {
  ASSERT_TRUE(Commit("main", "taxi", "base").ok());
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  TableChanges del;
  del.deletes.push_back("taxi");
  ASSERT_TRUE(
      catalog_->CommitChanges("feat", "drop", "tester", del).ok());
  ASSERT_TRUE(Commit("main", "other", "o/v1").ok());
  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(catalog_->GetTable("main", "taxi").status().IsNotFound());
  EXPECT_EQ(*catalog_->GetTable("main", "other"), "o/v1");
}

// ------------------------------------------------- transform-audit-write

TEST_F(CatalogTest, CommitOntoAFreshPinFastForwards) {
  ASSERT_TRUE(Commit("main", "taxi", "taxi/v1").ok());
  PinnedTables pin = catalog_->Pin(RefSpec("main"));
  auto published = Publish(pin, "main", "pickups", "pickups/v1");
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_TRUE(published->fast_forward);
  EXPECT_EQ(*catalog_->BranchHead("main"), published->commit_id);
  auto commit = catalog_->GetCommit(published->commit_id);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->parent_id, pin.commit_id());
  EXPECT_EQ(commit->message, "run: pickups");
  EXPECT_EQ(*catalog_->GetTable("main", "pickups"), "pickups/v1");
  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "taxi/v1");
  // No ref besides main exists, before or after.
  EXPECT_EQ(*catalog_->ListBranches(), std::vector<std::string>{"main"});
}

TEST_F(CatalogTest, NothingIsVisibleUntilTheCommitIsInstalled) {
  // A run that fails its audit never calls CommitOnto; one that does is
  // invisible until the install. Simulate a crash between the commit
  // write and the ref write by failing every ref PUT.
  storage::FaultInjectionStore faulty(&store_);
  auto opened = Catalog::Open(&faulty, &clock_);
  ASSERT_TRUE(opened.ok());
  const std::string before = *opened->BranchHead("main");
  PinnedTables pin = opened->Pin(RefSpec("main"));
  faulty.FailOnlyPrefix("catalog/refs/");
  faulty.FailAfter(1);  // the install's ref GET passes, its PUT fails
  TableChanges changes;
  changes.puts["dirty"] = "dirty/v1";
  auto published =
      opened->CommitOnto(pin, "main", "dirty write", "tester", changes);
  ASSERT_FALSE(published.ok());
  EXPECT_TRUE(published.status().IsIOError());
  faulty.Heal();
  EXPECT_EQ(*opened->BranchHead("main"), before);
  EXPECT_TRUE(opened->GetTable("main", "dirty").status().IsNotFound());
  EXPECT_EQ(RefHeads(), std::vector<std::string>{before});
}

TEST_F(CatalogTest, CommitOntoAMissingBranchFails) {
  PinnedTables pin = catalog_->Pin(RefSpec("main"));
  auto published = Publish(pin, "nope", "pickups", "pickups/v1");
  EXPECT_TRUE(published.status().IsNotFound())
      << published.status().ToString();
  EXPECT_EQ(*catalog_->ListBranches(), std::vector<std::string>{"main"});
  // A pin that failed to resolve is reported as itself; nothing written.
  size_t objects_before = store_.object_count();
  PinnedTables unresolved = catalog_->Pin(RefSpec("nope"));
  auto from_nothing = Publish(unresolved, "main", "pickups", "pickups/v1");
  EXPECT_TRUE(from_nothing.status().IsNotFound());
  EXPECT_EQ(store_.object_count(), objects_before);
}

TEST_F(CatalogTest, CommitOntoReportsStoreErrorsAsThemselves) {
  storage::FaultInjectionStore faulty(&store_);
  auto opened = Catalog::Open(&faulty, &clock_);
  ASSERT_TRUE(opened.ok());
  const std::string before = *opened->BranchHead("main");
  PinnedTables pin = opened->Pin(RefSpec("main"));
  faulty.FailOnlyPrefix("catalog/refs/");
  faulty.FailAfter(0);
  TableChanges changes;
  changes.puts["pickups"] = "pickups/v1";
  auto published =
      opened->CommitOnto(pin, "main", "run", "tester", changes);
  ASSERT_FALSE(published.ok());
  // A transient store error is not "no branch named main".
  EXPECT_TRUE(published.status().IsIOError())
      << published.status().ToString();
  faulty.Heal();
  EXPECT_EQ(*opened->BranchHead("main"), before);
}

TEST_F(CatalogTest, CommitOntoAStalePinMergesADisjointChange) {
  ASSERT_TRUE(Commit("main", "taxi", "taxi/v1").ok());
  PinnedTables pin = catalog_->Pin(RefSpec("main"));
  auto moved = Commit("main", "zones", "zones/v1");  // another writer
  ASSERT_TRUE(moved.ok());
  auto published = Publish(pin, "main", "pickups", "pickups/v1");
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_FALSE(published->fast_forward);
  auto merge = catalog_->GetCommit(published->commit_id);
  ASSERT_TRUE(merge.ok());
  EXPECT_EQ(merge->parent_id, *moved);
  // The merge's second parent is the publish commit, whose parent is the
  // pin.
  auto publish = catalog_->GetCommit(merge->merge_parent_id);
  ASSERT_TRUE(publish.ok());
  EXPECT_EQ(publish->parent_id, pin.commit_id());
  EXPECT_EQ(publish->message, "run: pickups");
  // Both changes are visible on main.
  EXPECT_EQ(*catalog_->GetTable("main", "pickups"), "pickups/v1");
  EXPECT_EQ(*catalog_->GetTable("main", "zones"), "zones/v1");
  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "taxi/v1");
}

TEST_F(CatalogTest, CommitOntoAStalePinConflictsOnTheSameTable) {
  ASSERT_TRUE(Commit("main", "pickups", "pickups/v1").ok());
  PinnedTables pin = catalog_->Pin(RefSpec("main"));
  auto moved = Commit("main", "pickups", "pickups/theirs");
  ASSERT_TRUE(moved.ok());
  size_t objects_before = store_.object_count();
  auto published = Publish(pin, "main", "pickups", "pickups/ours");
  ASSERT_FALSE(published.ok());
  EXPECT_TRUE(published.status().IsConflict())
      << published.status().ToString();
  // The branch head is unchanged; the publish commit was written but no
  // ref names it.
  EXPECT_EQ(*catalog_->BranchHead("main"), *moved);
  EXPECT_EQ(*catalog_->GetTable("main", "pickups"), "pickups/theirs");
  EXPECT_EQ(store_.object_count(), objects_before + 1);
  EXPECT_EQ(RefHeads(), std::vector<std::string>{*moved});
}

TEST_F(CatalogTest, BranchHeadPropagatesStoreErrors) {
  storage::FaultInjectionStore faulty(&store_);
  auto opened = Catalog::Open(&faulty, &clock_);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened->BranchHead("main"), *catalog_->ResolveRef("main"));
  EXPECT_TRUE(opened->BranchHead("nope").status().IsNotFound());
  faulty.FailAfter(0);
  EXPECT_TRUE(opened->BranchHead("main").status().IsIOError());
}

TEST_F(CatalogTest, GetCommitRejectsObjectNotMatchingItsId) {
  auto c1 = Commit("main", "t", "k1");
  auto c2 = Commit("main", "t", "k2");
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  // Swap c1's bytes in under c2's id: the object parses, but it is not
  // the commit that id names.
  auto c1_bytes = store_.Get("catalog/commits/" + *c1);
  ASSERT_TRUE(c1_bytes.ok());
  ASSERT_TRUE(store_.Put("catalog/commits/" + *c2, *c1_bytes).ok());
  auto swapped = catalog_->GetCommit(*c2);
  ASSERT_FALSE(swapped.ok());
  EXPECT_TRUE(swapped.status().IsIOError()) << swapped.status().ToString();
  // History walks stop at the bad object instead of following it.
  EXPECT_FALSE(catalog_->Log("main").ok());
  EXPECT_FALSE(catalog_->GetTables("main").ok());
  // The untouched commit still reads.
  EXPECT_TRUE(catalog_->GetCommit(*c1).ok());

  // A tampered field (same key, edited content) is caught the same way.
  auto edited = catalog_->GetCommit(*c1);
  ASSERT_TRUE(edited.ok());
  edited->tables["t"] = "evil";
  ASSERT_TRUE(
      store_.Put("catalog/commits/" + *c1, edited->Serialize()).ok());
  EXPECT_TRUE(catalog_->GetCommit(*c1).status().IsIOError());
}

TEST_F(CatalogTest, GetCommitMissingIsNotFound) {
  EXPECT_TRUE(
      catalog_->GetCommit("0000000000000000").status().IsNotFound());
}

TEST_F(CatalogTest, CommitTimestampsComeFromClock) {
  clock_.AdvanceMicros(5000);
  auto c = Commit("main", "t", "k");
  ASSERT_TRUE(c.ok());
  auto commit = catalog_->GetCommit(*c);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->timestamp_micros, clock_.NowMicros());
}

TEST_F(CatalogTest, LogLimit) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Commit("main", "t", "k" + std::to_string(i)).ok());
  }
  auto log = catalog_->Log("main", 3);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->size(), 3u);
}

// ------------------------------------------------ merge cost vs history

/// Counts reads of commit objects; everything else passes through.
class CommitReadCounter : public storage::ObjectStore {
 public:
  explicit CommitReadCounter(storage::ObjectStore* base) : base_(base) {}

  Status Put(const std::string& key, Bytes data) override {
    return base_->Put(key, std::move(data));
  }
  Result<Bytes> Get(const std::string& key) const override {
    if (key.rfind("catalog/commits/", 0) == 0) ++commit_gets_;
    return base_->Get(key);
  }
  Result<uint64_t> Head(const std::string& key) const override {
    return base_->Head(key);
  }
  Status Delete(const std::string& key) override {
    return base_->Delete(key);
  }
  Result<std::vector<storage::ObjectMeta>> List(
      const std::string& prefix) const override {
    return base_->List(prefix);
  }

  int64_t commit_gets() const { return commit_gets_; }

 private:
  storage::ObjectStore* base_;
  mutable int64_t commit_gets_ = 0;
};

/// Commit reads of fast-forwarding a 3-commit branch onto a main with
/// `prior` commits of history (besides the root).
int64_t FastForwardCommitReads(int prior) {
  storage::MemoryObjectStore backing;
  CommitReadCounter store(&backing);
  SimClock clock(1000);
  auto catalog = Catalog::Open(&store, &clock);
  EXPECT_TRUE(catalog.ok());
  for (int i = 0; i < prior; ++i) {
    TableChanges changes;
    changes.puts["history"] = "history/v" + std::to_string(i);
    EXPECT_TRUE(
        catalog->CommitChanges("main", "history", "tester", changes).ok());
  }
  EXPECT_TRUE(catalog->CreateBranch("run_1", "main").ok());
  for (int i = 0; i < 3; ++i) {
    TableChanges changes;
    changes.puts["artifact_" + std::to_string(i)] = "artifact/v1";
    EXPECT_TRUE(
        catalog->CommitChanges("run_1", "artifact", "tester", changes).ok());
  }
  int64_t before = store.commit_gets();
  auto merged = catalog->Merge("run_1", "main", "tester");
  EXPECT_TRUE(merged.ok());
  EXPECT_TRUE(merged.ok() && merged->fast_forward);
  EXPECT_EQ(*catalog->GetTable("main", "artifact_2"), "artifact/v1");
  return store.commit_gets() - before;
}

TEST(CatalogMergeCostTest, FastForwardReadsOnlyTheNewCommits) {
  int64_t short_history = FastForwardCommitReads(5);
  int64_t long_history = FastForwardCommitReads(500);
  EXPECT_EQ(short_history, long_history);
  EXPECT_LE(long_history, 4);
}

/// Commit reads of publishing onto a pin of a main with `prior` commits
/// of history after one other writer moved main by one commit.
int64_t StalePinCommitReads(int prior) {
  storage::MemoryObjectStore backing;
  CommitReadCounter store(&backing);
  SimClock clock(1000);
  auto catalog = Catalog::Open(&store, &clock);
  EXPECT_TRUE(catalog.ok());
  for (int i = 0; i < prior; ++i) {
    TableChanges changes;
    changes.puts["history"] = "history/v" + std::to_string(i);
    EXPECT_TRUE(
        catalog->CommitChanges("main", "history", "tester", changes).ok());
  }
  PinnedTables pin = catalog->Pin(RefSpec("main"));
  EXPECT_TRUE(pin.tables().ok());
  TableChanges theirs;
  theirs.puts["other"] = "other/v1";
  EXPECT_TRUE(catalog->CommitChanges("main", "other", "tester", theirs).ok());

  TableChanges ours;
  ours.puts["artifact"] = "artifact/v1";
  int64_t before = store.commit_gets();
  auto merged = catalog->CommitOnto(pin, "main", "run", "tester", ours);
  const int64_t reads = store.commit_gets() - before;
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged.ok() && !merged->fast_forward);
  EXPECT_EQ(*catalog->GetTable("main", "artifact"), "artifact/v1");
  EXPECT_EQ(*catalog->GetTable("main", "other"), "other/v1");
  return reads;
}

TEST(CatalogMergeCostTest, StalePinMergeStopsAtTheMergeBase) {
  int64_t short_history = StalePinCommitReads(5);
  int64_t long_history = StalePinCommitReads(500);
  EXPECT_EQ(short_history, long_history);
  EXPECT_LE(long_history, 4);
}

// ---------------------------------------------------------------- RefSpec

TEST(RefSpecTest, ParsePlainNameAndDefaults) {
  EXPECT_EQ(RefSpec().name(), "main");
  EXPECT_FALSE(RefSpec().has_timestamp());

  auto spec = RefSpec::Parse("feat_1");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name(), "feat_1");
  EXPECT_FALSE(spec->has_timestamp());
  EXPECT_EQ(spec->ToString(), "feat_1");
}

TEST(RefSpecTest, ParseEpochMicrosSuffix) {
  auto spec = RefSpec::Parse("main@1680000000000000");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name(), "main");
  ASSERT_TRUE(spec->has_timestamp());
  EXPECT_EQ(spec->timestamp_micros(), 1680000000000000ull);
  // Round trip through ToString and back.
  auto again = RefSpec::Parse(spec->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *spec);
}

TEST(RefSpecTest, ParseIso8601Suffix) {
  // 2023-04-01T00:00:00 UTC = 1680307200 seconds.
  auto day = RefSpec::Parse("main@2023-04-01");
  ASSERT_TRUE(day.ok());
  EXPECT_EQ(day->timestamp_micros(), 1680307200000000ull);

  auto second = RefSpec::Parse("main@2023-04-01T12:30:05");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->timestamp_micros(),
            1680307200000000ull + (12ull * 3600 + 30 * 60 + 5) * 1000000);
}

TEST(RefSpecTest, ParseErrors) {
  EXPECT_FALSE(RefSpec::Parse("").ok());
  EXPECT_FALSE(RefSpec::Parse("@123").ok());
  EXPECT_FALSE(RefSpec::Parse("main@").ok());
  EXPECT_FALSE(RefSpec::Parse("main@not-a-time").ok());
  EXPECT_FALSE(RefSpec::Parse("main@2023-13-01").ok());
}

TEST(RefSpecTest, LenientConversionRecordsBadTimestampSuffix) {
  // The implicit constructor is the migration path for call sites that
  // pass raw strings. A malformed "@timestamp" suffix keeps the raw
  // string as the name but records the parse error with a fix-it hint:
  // `main@2026-13-99` is a time-travel typo, not a branch name, and
  // resolving it as one produced a baffling unknown-ref message.
  RefSpec bad("main@oops");
  EXPECT_EQ(bad.name(), "main@oops");
  EXPECT_FALSE(bad.has_timestamp());
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("epoch micros"), std::string::npos);

  RefSpec typo("main@2026-13-99");
  EXPECT_FALSE(typo.ok());

  // '@'-free strings never carry an error, however odd the name.
  RefSpec plain("feat/weird-name");
  EXPECT_TRUE(plain.ok());

  RefSpec good(std::string("main@1680000000000000"));
  EXPECT_EQ(good.name(), "main");
  EXPECT_TRUE(good.has_timestamp());
  EXPECT_TRUE(good.ok());
}

TEST_F(CatalogTest, ResolveRefSpecWithoutTimestampMatchesResolveRef) {
  ASSERT_TRUE(Commit("main", "t", "k1").ok());
  auto by_name = catalog_->ResolveRef("main");
  auto by_spec = catalog_->Resolve(RefSpec("main"));
  ASSERT_TRUE(by_spec.ok());
  EXPECT_EQ(*by_spec, *by_name);
}

TEST_F(CatalogTest, ResolveAsOfWalksToNewestCommitAtOrBefore) {
  ASSERT_TRUE(Commit("main", "t", "k1").ok());
  uint64_t after_first = clock_.NowMicros();
  clock_.AdvanceMicros(1000000);
  ASSERT_TRUE(Commit("main", "t", "k2").ok());
  auto head = catalog_->ResolveRef("main");
  ASSERT_TRUE(head.ok());

  // As-of the first commit's time: sees k1, not k2.
  auto pinned = catalog_->Resolve(RefSpec("main", after_first));
  ASSERT_TRUE(pinned.ok());
  EXPECT_NE(*pinned, *head);
  auto tables = catalog_->GetTables(*pinned);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->at("t"), "k1");

  // As-of now (or later): the head commit.
  auto at_head = catalog_->Resolve(RefSpec("main", clock_.NowMicros()));
  ASSERT_TRUE(at_head.ok());
  EXPECT_EQ(*at_head, *head);

  // As-of before the root commit: nothing to resolve.
  EXPECT_TRUE(
      catalog_->Resolve(RefSpec("main", 1)).status().IsNotFound());

  // Unknown ref still errors the usual way.
  EXPECT_TRUE(catalog_->Resolve(RefSpec("nope", after_first))
                  .status()
                  .IsNotFound());
}

TEST_F(CatalogTest, ResolveRejectsMalformedTimestampSuffix) {
  ASSERT_TRUE(Commit("main", "t", "k1").ok());
  // The swallowed parse error surfaces at resolution instead of a
  // misleading "'main@2026-13-99' is not a branch" message.
  auto resolved = catalog_->Resolve(RefSpec("main@2026-13-99"));
  ASSERT_FALSE(resolved.ok());
  EXPECT_TRUE(resolved.status().IsInvalidArgument());
  EXPECT_NE(resolved.status().message().find("YYYY-MM-DD"),
            std::string::npos);
}

}  // namespace
}  // namespace bauplan::catalog
