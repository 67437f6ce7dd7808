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

/// One commit's table map, read once. A consumer that looks up several
/// tables (a query, a run, a check) pins one, so every lookup sees the
/// same commit and costs no further catalog reads. A failed resolution
/// is kept and returned by every lookup.
class PinnedTables {
 public:
  PinnedTables(std::string ref, std::string commit_id,
               Result<std::map<std::string, std::string>> tables)
      : ref_(std::move(ref)),
        commit_id_(std::move(commit_id)),
        tables_(std::move(tables)) {}

  /// A failed resolution of `ref`.
  PinnedTables(std::string ref, Status error)
      : ref_(std::move(ref)), tables_(std::move(error)) {}

  /// The ref as the consumer named it (used in error messages).
  const std::string& ref() const { return ref_; }
  /// The commit the map was read from; empty when resolution failed.
  const std::string& commit_id() const { return commit_id_; }
  /// The full table map, or the error resolving the ref.
  const Result<std::map<std::string, std::string>>& tables() const {
    return tables_;
  }

  /// Metadata key of one table; NotFound when absent, or the error
  /// resolving the ref.
  Result<std::string> GetTable(const std::string& table_name) const;

 private:
  std::string ref_;
  std::string commit_id_;
  Result<std::map<std::string, std::string>> tables_;
};

/// Git-for-data catalog (the Nessie stand-in): an append-only commit DAG in
/// object storage plus mutable branch/tag references. All reads are by
/// ref (branch name, tag name, or commit id), which is what makes
/// `bauplan query -b feat_1` and time travel work. A commit id is told
/// apart from a name by its shape (LooksLikeCommitId), which branch and
/// tag names may not have, so resolving one reads the commit object and
/// never probes refs.
///
/// A run publishes optimistically, like a Nessie commit: its one commit
/// is computed against the head it pinned, and installing it on a branch
/// that moved meanwhile is a three-way merge that fails with Conflict when
/// both sides changed the same table. The install reads the ref, then
/// writes it, so this holds for one writer at a time.
class Catalog {
 public:
  static constexpr const char* kMainBranch = "main";

  /// Opens (or initializes) the catalog stored under `prefix` in `store`.
  /// A fresh catalog gets a root commit and a "main" branch.
  static Result<Catalog> Open(storage::ObjectStore* store, Clock* clock,
                              std::string prefix = "catalog");

  /// True when `name` has the shape of a commit id: 16 lowercase hex
  /// digits, as Commit::ComputeId produces.
  static bool LooksLikeCommitId(const std::string& name);

  // -- refs -----------------------------------------------------------

  /// Creates branch `name` at the commit `from_ref` resolves to. Names
  /// shaped like a commit id are rejected (InvalidArgument).
  Status CreateBranch(const std::string& name, const std::string& from_ref);

  /// Deletes a branch; main cannot be deleted.
  Status DeleteBranch(const std::string& name);

  /// Creates an immutable tag at the commit `from_ref` resolves to; the
  /// same naming rule as CreateBranch.
  Status CreateTag(const std::string& name, const std::string& from_ref);

  /// All branch names, sorted.
  Result<std::vector<std::string>> ListBranches() const;

  bool HasBranch(const std::string& name) const;

  /// Head commit of branch `name`; NotFound when there is no such
  /// branch. Unlike HasBranch, store errors come back as they are.
  Result<std::string> BranchHead(const std::string& name) const;

  /// Resolves a branch name, tag name, or literal commit id to a commit id.
  /// A commit id costs one commit read (it is checked to exist) and no
  /// ref probes; a name costs one ref read per kind tried (branch, tag).
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

  /// The table map at `spec` (branch, tag, commit id, or as-of), read
  /// once for many lookups. A commit id costs exactly one commit read.
  PinnedTables Pin(const RefSpec& spec) const;

  /// The table map of `commit_id`, which the caller already resolved:
  /// one commit read, no ref probes. `ref` names the pin in error
  /// messages (empty = the commit id).
  PinnedTables PinCommit(const std::string& commit_id,
                         std::string ref = "") const;

  // -- writes ---------------------------------------------------------

  /// Applies `changes` on top of `branch`, creating a new commit and
  /// advancing the branch: reads the ref and the head commit, writes the
  /// commit, then the ref.
  Result<std::string> CommitChanges(const std::string& branch,
                                    const std::string& message,
                                    const std::string& author,
                                    const TableChanges& changes);

  /// Merges `from_ref` into `to_branch`. Fast-forwards when possible;
  /// otherwise three-way merges against the common ancestor and fails
  /// with Conflict when both sides changed the same table differently.
  /// A fast-forward reads only the commits `from_ref` adds, so its cost
  /// does not grow with the target's history.
  Result<MergeResult> Merge(const std::string& from_ref,
                            const std::string& to_branch,
                            const std::string& author);

  /// The transform-audit-write publish (paper Fig. 4): writes one commit
  /// of `changes` onto `base` (parent: the pinned commit, tables: the
  /// pin's map plus the changes; nothing is re-read), then installs it on
  /// `branch` as Merge would: a fast-forward (one ref read, one ref
  /// write) when the head still equals the pin, else a three-way merge
  /// that can fail with Conflict. No ref names the commit until it is
  /// installed; a failed install leaves the branch unmoved.
  Result<MergeResult> CommitOnto(const PinnedTables& base,
                                 const std::string& branch,
                                 const std::string& message,
                                 const std::string& author,
                                 const TableChanges& changes);

 private:
  Catalog(storage::ObjectStore* store, Clock* clock, std::string prefix)
      : store_(store), clock_(clock), prefix_(std::move(prefix)) {}

  std::string CommitKey(const std::string& id) const;
  std::string RefKey(const std::string& kind, const std::string& name) const;

  Result<std::optional<std::string>> ReadRef(const std::string& kind,
                                             const std::string& name) const;
  Status WriteRef(const std::string& kind, const std::string& name,
                  const std::string& commit_id);
  /// Rejects names no branch or tag may have: empty, or shaped like a
  /// commit id (which would shadow the commit in resolution).
  static Status ValidateRefName(const std::string& kind,
                                const std::string& name);

  /// Sets `commit->id` and stores the commit under it.
  Status WriteCommit(Commit* commit);
  /// Writes the child of `parent_id` whose tables are `tables` with
  /// `changes` applied; writes nothing when a delete names a missing
  /// table.
  Result<Commit> WriteChild(std::string parent_id,
                            std::map<std::string, std::string> tables,
                            const std::string& message,
                            const std::string& author,
                            const TableChanges& changes);
  /// Moves `to_branch`, whose head the caller read as `to_head`, to
  /// include `source`, a commit already in hand: a fast-forward when
  /// `to_head` is on the source's first-parent chain, otherwise a
  /// three-way merge commit. `source_name` names the source in the
  /// merge message and conflict errors.
  Result<MergeResult> Install(const Commit& source,
                              const std::string& source_name,
                              const std::string& to_branch,
                              const std::string& to_head,
                              const std::string& author);

  storage::ObjectStore* store_;
  Clock* clock_;
  std::string prefix_;
};

}  // namespace bauplan::catalog

#endif  // BAUPLAN_CATALOG_CATALOG_H_
