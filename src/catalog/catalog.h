#ifndef BAUPLAN_CATALOG_CATALOG_H_
#define BAUPLAN_CATALOG_CATALOG_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/commit.h"
#include "catalog/refspec.h"
#include "common/clock.h"
#include "common/result.h"
#include "storage/object_store.h"

namespace bauplan::catalog {

/// A set of table changes applied by one commit. Absent tables are
/// created, present ones repointed; deletes remove the name.
struct TableChanges {
  /// table name -> new metadata key.
  std::map<std::string, std::string> puts;
  std::vector<std::string> deletes;
};

/// Summary of a merge.
struct MergeResult {
  std::string commit_id;
  bool fast_forward = false;
};

/// One ref's table map, read once. A consumer that looks up several
/// tables (a query, a run, a check) pins one, so every lookup sees the
/// same commit and costs no further catalog reads. A failed resolution
/// is kept and returned by every lookup.
class PinnedTables {
 public:
  PinnedTables(std::string ref,
               Result<std::map<std::string, std::string>> tables)
      : ref_(std::move(ref)), tables_(std::move(tables)) {}

  /// The ref as the consumer named it (used in error messages).
  const std::string& ref() const { return ref_; }
  /// The full table map, or the error resolving the ref.
  const Result<std::map<std::string, std::string>>& tables() const {
    return tables_;
  }

  /// Metadata key of one table; NotFound when absent, or the error
  /// resolving the ref.
  Result<std::string> GetTable(const std::string& table_name) const;

 private:
  std::string ref_;
  Result<std::map<std::string, std::string>> tables_;
};

/// Git-for-data catalog (the Nessie stand-in): an append-only commit DAG in
/// object storage plus mutable branch/tag references. All reads are by
/// ref (branch name, tag name, or commit id), which is what makes
/// `bauplan query -b feat_1` and time travel work.
///
/// Commit concurrency follows compare-and-swap semantics: a commit states
/// the head it was computed against and fails with Conflict if the branch
/// has moved, exactly like Nessie's optimistic locking.
class Catalog {
 public:
  static constexpr const char* kMainBranch = "main";

  /// Opens (or initializes) the catalog stored under `prefix` in `store`.
  /// A fresh catalog gets a root commit and a "main" branch.
  static Result<Catalog> Open(storage::ObjectStore* store, Clock* clock,
                              std::string prefix = "catalog");

  // -- refs -----------------------------------------------------------

  /// Creates branch `name` at the commit `from_ref` resolves to.
  Status CreateBranch(const std::string& name, const std::string& from_ref);

  /// Deletes a branch; main cannot be deleted.
  Status DeleteBranch(const std::string& name);

  /// Creates an immutable tag at the commit `from_ref` resolves to.
  Status CreateTag(const std::string& name, const std::string& from_ref);

  /// All branch names, sorted.
  Result<std::vector<std::string>> ListBranches() const;

  bool HasBranch(const std::string& name) const;

  /// Head commit of branch `name`; NotFound when there is no such
  /// branch. Unlike HasBranch, store errors come back as they are.
  Result<std::string> BranchHead(const std::string& name) const;

  /// Resolves a branch name, tag name, or literal commit id to a commit id.
  Result<std::string> ResolveRef(const std::string& ref) const;

  /// Resolves a parsed refspec. Without a timestamp this is ResolveRef;
  /// with one ("name@timestamp") it walks the ref's first-parent log to
  /// the newest commit at or before the timestamp (as-of time travel).
  Result<std::string> Resolve(const RefSpec& spec) const;

  // -- history --------------------------------------------------------

  /// The commit stored under `commit_id`. Fails when the stored object
  /// does not hash to that id, so a corrupt or swapped object is never
  /// served (or followed) as the requested commit.
  Result<Commit> GetCommit(const std::string& commit_id) const;

  /// Commits on the first-parent chain from `ref` back to the root,
  /// newest first, capped at `limit` (0 = unlimited).
  Result<std::vector<Commit>> Log(const std::string& ref,
                                  size_t limit = 0) const;

  // -- content --------------------------------------------------------

  /// The full table map at `ref`.
  Result<std::map<std::string, std::string>> GetTables(
      const std::string& ref) const;

  /// Metadata key of one table at `ref`; NotFound when absent.
  Result<std::string> GetTable(const std::string& ref,
                               const std::string& table_name) const;

  /// The table map at `ref`, read once for many lookups.
  PinnedTables Pin(const std::string& ref) const;

  // -- writes ---------------------------------------------------------

  /// Applies `changes` on top of `branch`, creating a new commit and
  /// advancing the branch. When `expected_head` is non-empty and the
  /// branch has moved past it, fails with Conflict and writes nothing.
  Result<std::string> CommitChanges(const std::string& branch,
                                    const std::string& message,
                                    const std::string& author,
                                    const TableChanges& changes,
                                    const std::string& expected_head = "");

  /// Merges `from_ref` into `to_branch`. Fast-forwards when possible;
  /// otherwise three-way merges against the common ancestor and fails
  /// with Conflict when both sides changed the same table differently.
  /// A fast-forward reads only the commits `from_ref` adds, so its cost
  /// does not grow with the target's history.
  Result<MergeResult> Merge(const std::string& from_ref,
                            const std::string& to_branch,
                            const std::string& author);

  /// Creates a uniquely-named ephemeral branch "<prefix>_<n>" off
  /// `from_ref` and returns its name (paper's run_12 branches, Fig. 4).
  Result<std::string> CreateEphemeralBranch(const std::string& from_ref,
                                            const std::string& prefix);

 private:
  Catalog(storage::ObjectStore* store, Clock* clock, std::string prefix)
      : store_(store), clock_(clock), prefix_(std::move(prefix)) {}

  std::string CommitKey(const std::string& id) const;
  std::string RefKey(const std::string& kind, const std::string& name) const;

  Result<std::optional<std::string>> ReadRef(const std::string& kind,
                                             const std::string& name) const;
  Status WriteRef(const std::string& kind, const std::string& name,
                  const std::string& commit_id);

  Result<std::string> WriteCommit(Commit commit);

  storage::ObjectStore* store_;
  Clock* clock_;
  std::string prefix_;
  uint64_t ephemeral_counter_ = 0;
};

}  // namespace bauplan::catalog

#endif  // BAUPLAN_CATALOG_CATALOG_H_
