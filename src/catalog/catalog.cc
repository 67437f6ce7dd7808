#include "catalog/catalog.h"

#include <set>

#include "common/strings.h"

namespace bauplan::catalog {

Result<Catalog> Catalog::Open(storage::ObjectStore* store, Clock* clock,
                              std::string prefix) {
  Catalog cat(store, clock, std::move(prefix));
  BAUPLAN_ASSIGN_OR_RETURN(auto main_head,
                           cat.ReadRef("branch", kMainBranch));
  if (!main_head.has_value()) {
    Commit root;
    root.message = "initialize catalog";
    root.author = "system";
    root.timestamp_micros = clock->NowMicros();
    BAUPLAN_ASSIGN_OR_RETURN(std::string root_id,
                             cat.WriteCommit(std::move(root)));
    BAUPLAN_RETURN_NOT_OK(cat.WriteRef("branch", kMainBranch, root_id));
  }
  return cat;
}

std::string Catalog::CommitKey(const std::string& id) const {
  return StrCat(prefix_, "/commits/", id);
}

std::string Catalog::RefKey(const std::string& kind,
                            const std::string& name) const {
  return StrCat(prefix_, "/refs/", kind, "/", name);
}

Result<std::optional<std::string>> Catalog::ReadRef(
    const std::string& kind, const std::string& name) const {
  auto data = store_->Get(RefKey(kind, name));
  if (!data.ok()) {
    if (data.status().IsNotFound()) return std::optional<std::string>();
    return data.status();
  }
  return std::optional<std::string>(
      std::string(data->begin(), data->end()));
}

Status Catalog::WriteRef(const std::string& kind, const std::string& name,
                         const std::string& commit_id) {
  return store_->Put(RefKey(kind, name),
                     Bytes(commit_id.begin(), commit_id.end()));
}

Result<std::string> Catalog::WriteCommit(Commit commit) {
  commit.id = commit.ComputeId();
  BAUPLAN_RETURN_NOT_OK(store_->Put(CommitKey(commit.id),
                                    commit.Serialize()));
  return commit.id;
}

Status Catalog::CreateBranch(const std::string& name,
                             const std::string& from_ref) {
  if (name.empty()) return Status::InvalidArgument("empty branch name");
  BAUPLAN_ASSIGN_OR_RETURN(auto existing, ReadRef("branch", name));
  if (existing.has_value()) {
    return Status::AlreadyExists(StrCat("branch '", name,
                                        "' already exists"));
  }
  BAUPLAN_ASSIGN_OR_RETURN(std::string commit_id, ResolveRef(from_ref));
  return WriteRef("branch", name, commit_id);
}

Status Catalog::DeleteBranch(const std::string& name) {
  if (name == kMainBranch) {
    return Status::FailedPrecondition("cannot delete the main branch");
  }
  Status st = store_->Delete(RefKey("branch", name));
  if (st.IsNotFound()) {
    return Status::NotFound(StrCat("no branch named '", name, "'"));
  }
  return st;
}

Status Catalog::CreateTag(const std::string& name,
                          const std::string& from_ref) {
  if (name.empty()) return Status::InvalidArgument("empty tag name");
  BAUPLAN_ASSIGN_OR_RETURN(auto existing, ReadRef("tag", name));
  if (existing.has_value()) {
    return Status::AlreadyExists(StrCat("tag '", name, "' already exists"));
  }
  BAUPLAN_ASSIGN_OR_RETURN(std::string commit_id, ResolveRef(from_ref));
  return WriteRef("tag", name, commit_id);
}

Result<std::vector<std::string>> Catalog::ListBranches() const {
  std::string prefix = StrCat(prefix_, "/refs/branch/");
  BAUPLAN_ASSIGN_OR_RETURN(auto objects, store_->List(prefix));
  std::vector<std::string> names;
  names.reserve(objects.size());
  for (const auto& obj : objects) {
    names.push_back(obj.key.substr(prefix.size()));
  }
  return names;
}

bool Catalog::HasBranch(const std::string& name) const {
  return BranchHead(name).ok();
}

Result<std::string> Catalog::BranchHead(const std::string& name) const {
  BAUPLAN_ASSIGN_OR_RETURN(auto head, ReadRef("branch", name));
  if (!head.has_value()) {
    return Status::NotFound(StrCat("no branch named '", name, "'"));
  }
  return *head;
}

Result<std::string> Catalog::ResolveRef(const std::string& ref) const {
  BAUPLAN_ASSIGN_OR_RETURN(auto branch, ReadRef("branch", ref));
  if (branch.has_value()) return *branch;
  BAUPLAN_ASSIGN_OR_RETURN(auto tag, ReadRef("tag", ref));
  if (tag.has_value()) return *tag;
  // Literal commit id.
  if (store_->Exists(CommitKey(ref))) return ref;
  return Status::NotFound(
      StrCat("'", ref, "' is not a branch, tag, or commit id"));
}

Result<std::string> Catalog::Resolve(const RefSpec& spec) const {
  // A spec that swallowed a malformed @timestamp reports the parse error
  // here, not a misleading unknown-ref failure on the raw string.
  BAUPLAN_RETURN_NOT_OK(spec.status());
  BAUPLAN_ASSIGN_OR_RETURN(std::string id, ResolveRef(spec.name()));
  if (!spec.has_timestamp()) return id;
  // As-of: newest commit on the first-parent chain at or before the
  // timestamp (the chain is newest-first, so the first match wins).
  while (!id.empty()) {
    BAUPLAN_ASSIGN_OR_RETURN(Commit c, GetCommit(id));
    if (c.timestamp_micros <= spec.timestamp_micros()) return id;
    id = c.parent_id;
  }
  return Status::NotFound(
      StrCat("'", spec.name(), "' has no commit at or before @",
             spec.timestamp_micros()));
}

Result<Commit> Catalog::GetCommit(const std::string& commit_id) const {
  auto data = store_->Get(CommitKey(commit_id));
  if (!data.ok()) {
    if (!data.status().IsNotFound()) return data.status();
    return Status::NotFound(StrCat("no commit with id '", commit_id, "'"));
  }
  BAUPLAN_ASSIGN_OR_RETURN(Commit commit, Commit::Deserialize(*data));
  if (commit.id != commit_id) {
    return Status::IOError(StrCat("commit object '", commit_id,
                                  "' hashes to ", commit.id,
                                  " (corrupt or swapped)"));
  }
  return commit;
}

Result<std::vector<Commit>> Catalog::Log(const std::string& ref,
                                         size_t limit) const {
  BAUPLAN_ASSIGN_OR_RETURN(std::string id, ResolveRef(ref));
  std::vector<Commit> out;
  while (!id.empty()) {
    BAUPLAN_ASSIGN_OR_RETURN(Commit c, GetCommit(id));
    id = c.parent_id;
    out.push_back(std::move(c));
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

Result<std::map<std::string, std::string>> Catalog::GetTables(
    const std::string& ref) const {
  BAUPLAN_ASSIGN_OR_RETURN(std::string id, ResolveRef(ref));
  BAUPLAN_ASSIGN_OR_RETURN(Commit c, GetCommit(id));
  return c.tables;
}

Result<std::string> Catalog::GetTable(const std::string& ref,
                                      const std::string& table_name) const {
  return Pin(ref).GetTable(table_name);
}

PinnedTables Catalog::Pin(const std::string& ref) const {
  return PinnedTables(ref, GetTables(ref));
}

Result<std::string> PinnedTables::GetTable(
    const std::string& table_name) const {
  BAUPLAN_RETURN_NOT_OK(tables_.status());
  auto it = tables_->find(table_name);
  if (it == tables_->end()) {
    return Status::NotFound(StrCat("no table named '", table_name,
                                   "' at ref '", ref_, "'"));
  }
  return it->second;
}

Result<std::string> Catalog::CommitChanges(const std::string& branch,
                                           const std::string& message,
                                           const std::string& author,
                                           const TableChanges& changes,
                                           const std::string& expected_head) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string head, BranchHead(branch));
  if (!expected_head.empty() && head != expected_head) {
    return Status::Conflict(
        StrCat("branch '", branch, "' moved from ", expected_head, " to ",
               head, "; rebase and retry"));
  }
  BAUPLAN_ASSIGN_OR_RETURN(Commit parent, GetCommit(head));

  Commit next;
  next.parent_id = parent.id;
  next.message = message;
  next.author = author;
  next.timestamp_micros = clock_->NowMicros();
  next.tables = parent.tables;
  for (const auto& name : changes.deletes) {
    if (next.tables.erase(name) == 0) {
      return Status::NotFound(
          StrCat("cannot delete table '", name, "': not in catalog"));
    }
  }
  for (const auto& [name, key] : changes.puts) next.tables[name] = key;

  BAUPLAN_ASSIGN_OR_RETURN(std::string id, WriteCommit(std::move(next)));
  BAUPLAN_RETURN_NOT_OK(WriteRef("branch", branch, id));
  return id;
}

Result<MergeResult> Catalog::Merge(const std::string& from_ref,
                                   const std::string& to_branch,
                                   const std::string& author) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string from_id, ResolveRef(from_ref));
  BAUPLAN_ASSIGN_OR_RETURN(std::string to_head, BranchHead(to_branch));
  if (from_id == to_head) return MergeResult{to_head, true};

  // Walk the source's first-parent chain. Reaching the target head means
  // a fast-forward, found by reading only the commits the source added.
  std::set<std::string> from_chain;
  std::optional<Commit> theirs;
  for (std::string id = from_id; !id.empty();) {
    if (id == to_head) {
      BAUPLAN_RETURN_NOT_OK(WriteRef("branch", to_branch, from_id));
      return MergeResult{from_id, true};
    }
    BAUPLAN_ASSIGN_OR_RETURN(Commit c, GetCommit(id));
    from_chain.insert(id);
    id = c.parent_id;
    if (!theirs.has_value()) theirs = std::move(c);
  }

  // Otherwise the merge base is the first commit on the target's chain
  // that the source also has. A base equal to the source means the
  // source is already merged.
  std::optional<Commit> ours;
  std::string base_id = to_head;
  while (from_chain.count(base_id) == 0) {
    if (base_id.empty()) {
      return Status::Internal(
          "commits share no ancestor (disjoint histories)");
    }
    BAUPLAN_ASSIGN_OR_RETURN(Commit c, GetCommit(base_id));
    base_id = c.parent_id;
    if (!ours.has_value()) ours = std::move(c);
  }
  if (base_id == from_id) return MergeResult{to_head, true};

  // Three-way merge against the base.
  BAUPLAN_ASSIGN_OR_RETURN(Commit base, GetCommit(base_id));
  std::map<std::string, std::string> merged = ours->tables;
  std::set<std::string> all_names;
  for (const auto& [n, k] : base.tables) all_names.insert(n);
  for (const auto& [n, k] : ours->tables) all_names.insert(n);
  for (const auto& [n, k] : theirs->tables) all_names.insert(n);

  auto lookup = [](const std::map<std::string, std::string>& m,
                   const std::string& n) -> std::string {
    auto it = m.find(n);
    return it == m.end() ? std::string() : it->second;
  };
  for (const auto& name : all_names) {
    std::string in_base = lookup(base.tables, name);
    std::string in_ours = lookup(ours->tables, name);
    std::string in_theirs = lookup(theirs->tables, name);
    if (in_ours == in_theirs) continue;  // agree (incl. both deleted)
    bool ours_changed = in_ours != in_base;
    bool theirs_changed = in_theirs != in_base;
    if (ours_changed && theirs_changed) {
      return Status::Conflict(
          StrCat("merge conflict on table '", name, "': both '", to_branch,
                 "' and '", from_ref, "' changed it since ", base_id));
    }
    // Exactly one side changed: take that side.
    const std::string& winner = theirs_changed ? in_theirs : in_ours;
    if (winner.empty()) {
      merged.erase(name);
    } else {
      merged[name] = winner;
    }
  }

  Commit merge;
  merge.parent_id = ours->id;
  merge.merge_parent_id = theirs->id;
  merge.message = StrCat("merge ", from_ref, " into ", to_branch);
  merge.author = author;
  merge.timestamp_micros = clock_->NowMicros();
  merge.tables = std::move(merged);
  BAUPLAN_ASSIGN_OR_RETURN(std::string id, WriteCommit(std::move(merge)));
  BAUPLAN_RETURN_NOT_OK(WriteRef("branch", to_branch, id));
  return MergeResult{id, false};
}

Result<std::string> Catalog::CreateEphemeralBranch(
    const std::string& from_ref, const std::string& prefix) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string name = StrCat(prefix, "_", ++ephemeral_counter_);
    Status st = CreateBranch(name, from_ref);
    if (st.ok()) return name;
    if (!st.IsAlreadyExists()) return st;
  }
  return Status::Internal("could not allocate an ephemeral branch name");
}

}  // namespace bauplan::catalog
