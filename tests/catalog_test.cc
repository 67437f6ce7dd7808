#include <string>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/transaction.h"
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
                             const std::string& key,
                             const std::string& expected_head = "") {
    TableChanges changes;
    changes.puts[table] = key;
    return catalog_->CommitChanges(branch, "set " + table, "tester",
                                   changes, expected_head);
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
  auto head = catalog_->ResolveRef("main");
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(Commit("main", "a", "k1").ok());  // branch moves
  auto stale = Commit("main", "b", "k2", *head);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsConflict());
  // With the right head it succeeds.
  auto fresh_head = catalog_->ResolveRef("main");
  EXPECT_TRUE(Commit("main", "b", "k2", *fresh_head).ok());
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

TEST_F(CatalogTest, EphemeralBranchNamesAreUnique) {
  auto b1 = catalog_->CreateEphemeralBranch("main", "run");
  auto b2 = catalog_->CreateEphemeralBranch("main", "run");
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  EXPECT_NE(*b1, *b2);
  EXPECT_TRUE(catalog_->HasBranch(*b1));
}

// ------------------------------------------------- transform-audit-write

TEST_F(CatalogTest, TransformAuditWriteCommitsOnSuccess) {
  auto result = RunTransformAuditWrite(
      catalog_.get(), "main", "tester",
      [](Catalog* cat, const std::string& branch) -> Status {
        TableChanges changes;
        changes.puts["pickups"] = "pickups/v1";
        return cat->CommitChanges(branch, "build pickups", "tester",
                                  changes).status();
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*catalog_->GetTable("main", "pickups"), "pickups/v1");
  // Ephemeral branch is gone.
  EXPECT_FALSE(catalog_->HasBranch(result->ephemeral_branch));
}

TEST_F(CatalogTest, TransformAuditWriteRollsBackOnFailure) {
  std::string eph_name;
  auto result = RunTransformAuditWrite(
      catalog_.get(), "main", "tester",
      [&eph_name](Catalog* cat, const std::string& branch) -> Status {
        eph_name = branch;
        TableChanges changes;
        changes.puts["dirty"] = "dirty/v1";
        BAUPLAN_RETURN_NOT_OK(cat->CommitChanges(branch, "dirty write",
                                                 "tester", changes)
                                  .status());
        return Status::FailedPrecondition("expectation failed: mean <= 10");
      });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
  // Main never saw the dirty table; ephemeral branch is deleted.
  EXPECT_TRUE(catalog_->GetTable("main", "dirty").status().IsNotFound());
  EXPECT_FALSE(catalog_->HasBranch(eph_name));
}

TEST_F(CatalogTest, TransformAuditWriteOnMissingBranchFails) {
  auto result = RunTransformAuditWrite(
      catalog_.get(), "nope", "tester",
      [](Catalog*, const std::string&) { return Status::OK(); });
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(CatalogTest, TransformAuditWriteReportsStoreErrorsAsThemselves) {
  storage::FaultInjectionStore faulty(&store_);
  auto opened = Catalog::Open(&faulty, &clock_);
  ASSERT_TRUE(opened.ok());
  faulty.FailOnlyPrefix("catalog/refs/");
  faulty.FailAfter(0);
  bool body_ran = false;
  auto result = RunTransformAuditWrite(
      &*opened, "main", "tester",
      [&body_ran](Catalog*, const std::string&) {
        body_ran = true;
        return Status::OK();
      });
  ASSERT_FALSE(result.ok());
  // A transient store error is not "no branch named main".
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_FALSE(body_ran);
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
