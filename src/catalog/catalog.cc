#include "catalog/catalog.h"

#include <map>
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
    BAUPLAN_RETURN_NOT_OK(cat.WriteCommit(&root));
    BAUPLAN_RETURN_NOT_OK(cat.WriteRef("branch", kMainBranch, root.id));
  }
  return cat;
}

bool Catalog::LooksLikeCommitId(const std::string& name) {
  if (name.size() != 16) return false;
  for (char c : name) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

Status Catalog::ValidateRefName(const std::string& kind,
                                const std::string& name) {
  if (name.empty()) return Status::InvalidArgument(StrCat("empty ", kind,
                                                          " name"));
  if (LooksLikeCommitId(name)) {
    return Status::InvalidArgument(StrCat(kind, " name '", name,
                                          "' has the shape of a commit id"));
  }
  return Status::OK();
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

Status Catalog::WriteCommit(Commit* commit) {
  commit->id = commit->ComputeId();
  return store_->Put(CommitKey(commit->id), commit->Serialize());
}

Result<Commit> Catalog::WriteChild(std::string parent_id,
                                   std::map<std::string, std::string> tables,
                                   const std::string& message,
                                   const std::string& author,
                                   const TableChanges& changes) {
  Commit next;
  next.parent_id = std::move(parent_id);
  next.message = message;
  next.author = author;
  next.timestamp_micros = clock_->NowMicros();
  next.tables = std::move(tables);
  for (const auto& name : changes.deletes) {
    if (next.tables.erase(name) == 0) {
      return Status::NotFound(
          StrCat("cannot delete table '", name, "': not in catalog"));
    }
  }
  for (const auto& [name, key] : changes.puts) next.tables[name] = key;
  BAUPLAN_RETURN_NOT_OK(WriteCommit(&next));
  return next;
}

Status Catalog::CreateBranch(const std::string& name,
                             const std::string& from_ref) {
  BAUPLAN_RETURN_NOT_OK(ValidateRefName("branch", name));
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
  BAUPLAN_RETURN_NOT_OK(ValidateRefName("tag", name));
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
  if (LooksLikeCommitId(ref)) {
    // No branch or tag has this shape, so only the commit can match.
    auto commit = GetCommit(ref);
    if (commit.ok()) return ref;
    if (!commit.status().IsNotFound()) return commit.status();
  } else {
    BAUPLAN_ASSIGN_OR_RETURN(auto branch, ReadRef("branch", ref));
    if (branch.has_value()) return *branch;
    BAUPLAN_ASSIGN_OR_RETURN(auto tag, ReadRef("tag", ref));
    if (tag.has_value()) return *tag;
  }
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
  return Pin(ref).tables();
}

Result<std::string> Catalog::GetTable(const std::string& ref,
                                      const std::string& table_name) const {
  return Pin(ref).GetTable(table_name);
}

PinnedTables Catalog::Pin(const RefSpec& spec) const {
  if (spec.ok() && !spec.has_timestamp() && LooksLikeCommitId(spec.name())) {
    // A commit id needs no resolution step: its one read is the pin.
    return PinCommit(spec.name());
  }
  auto id = Resolve(spec);
  if (!id.ok()) return PinnedTables(spec.ToString(), id.status());
  return PinCommit(*id, spec.ToString());
}

PinnedTables Catalog::PinCommit(const std::string& commit_id,
                                std::string ref) const {
  if (ref.empty()) ref = commit_id;
  auto commit = GetCommit(commit_id);
  if (!commit.ok()) return PinnedTables(std::move(ref), commit.status());
  return PinnedTables(std::move(ref), commit_id, std::move(commit->tables));
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
                                           const TableChanges& changes) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string head, BranchHead(branch));
  BAUPLAN_ASSIGN_OR_RETURN(Commit parent, GetCommit(head));
  BAUPLAN_ASSIGN_OR_RETURN(
      Commit next, WriteChild(std::move(parent.id), std::move(parent.tables),
                              message, author, changes));
  BAUPLAN_RETURN_NOT_OK(WriteRef("branch", branch, next.id));
  return next.id;
}

Result<MergeResult> Catalog::CommitOnto(const PinnedTables& base,
                                        const std::string& branch,
                                        const std::string& message,
                                        const std::string& author,
                                        const TableChanges& changes) {
  BAUPLAN_RETURN_NOT_OK(base.tables().status());
  BAUPLAN_ASSIGN_OR_RETURN(
      Commit next,
      WriteChild(base.commit_id(), *base.tables(), message, author, changes));
  BAUPLAN_ASSIGN_OR_RETURN(std::string head, BranchHead(branch));
  return Install(next, next.id, branch, head, author);
}

Result<MergeResult> Catalog::Merge(const std::string& from_ref,
                                   const std::string& to_branch,
                                   const std::string& author) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string from_id, ResolveRef(from_ref));
  BAUPLAN_ASSIGN_OR_RETURN(std::string to_head, BranchHead(to_branch));
  if (from_id == to_head) return MergeResult{to_head, true};
  BAUPLAN_ASSIGN_OR_RETURN(Commit source, GetCommit(from_id));
  return Install(source, from_ref, to_branch, to_head, author);
}

Result<MergeResult> Catalog::Install(const Commit& source,
                                     const std::string& source_name,
                                     const std::string& to_branch,
                                     const std::string& to_head,
                                     const std::string& author) {
  // Walk both first-parent chains in step and stop at the first commit
  // both reach: the merge base. An id is known from its child before it
  // is read, so a fast-forward onto a head the source names as its
  // parent reads nothing. The source's chain leads by two reads, so a
  // fast-forward over up to three new commits reads only those; after
  // that the chains alternate, and a branch that moved by a few commits
  // costs a few reads whatever the length of history.
  std::map<std::string, Commit> read;
  std::set<std::string> on_source = {source.id};
  std::set<std::string> on_target = {to_head};
  std::string source_next = source.parent_id;  // known, not yet read
  std::string target_next = to_head;
  std::string base_id;
  if (!source_next.empty()) on_source.insert(source_next);
  if (on_source.count(to_head) > 0) base_id = to_head;
  // Reads `*next`, steps it to its parent, and reports whether the parent
  // is already known on the other chain.
  auto step = [&](std::string* next, std::set<std::string>* mine,
                  const std::set<std::string>& theirs) -> Result<bool> {
    BAUPLAN_ASSIGN_OR_RETURN(Commit c, GetCommit(*next));
    std::string parent = c.parent_id;
    read.emplace(*next, std::move(c));
    *next = parent;
    if (parent.empty()) return false;
    mine->insert(parent);
    if (theirs.count(parent) == 0) return false;
    base_id = parent;
    return true;
  };
  for (int source_reads = 0; base_id.empty();) {
    if (source_next.empty() && target_next.empty()) {
      return Status::Internal(
          "commits share no ancestor (disjoint histories)");
    }
    if (!source_next.empty()) {
      ++source_reads;
      BAUPLAN_ASSIGN_OR_RETURN(bool met,
                               step(&source_next, &on_source, on_target));
      if (met) break;
    }
    if (!target_next.empty() && (source_reads >= 2 || source_next.empty())) {
      BAUPLAN_ASSIGN_OR_RETURN(bool met,
                               step(&target_next, &on_target, on_source));
      if (met) break;
    }
  }
  if (base_id == to_head) {
    BAUPLAN_RETURN_NOT_OK(WriteRef("branch", to_branch, source.id));
    return MergeResult{source.id, true};
  }
  // A base equal to the source means the source is already merged.
  if (base_id == source.id) return MergeResult{to_head, true};
  auto commit = [&](const std::string& id) -> Result<Commit> {
    auto it = read.find(id);
    if (it != read.end()) return it->second;
    return GetCommit(id);
  };
  BAUPLAN_ASSIGN_OR_RETURN(Commit ours, commit(to_head));

  // Three-way merge against the base.
  BAUPLAN_ASSIGN_OR_RETURN(Commit base, commit(base_id));
  std::map<std::string, std::string> merged = ours.tables;
  std::set<std::string> all_names;
  for (const auto& [n, k] : base.tables) all_names.insert(n);
  for (const auto& [n, k] : ours.tables) all_names.insert(n);
  for (const auto& [n, k] : source.tables) all_names.insert(n);

  auto lookup = [](const std::map<std::string, std::string>& m,
                   const std::string& n) -> std::string {
    auto it = m.find(n);
    return it == m.end() ? std::string() : it->second;
  };
  for (const auto& name : all_names) {
    std::string in_base = lookup(base.tables, name);
    std::string in_ours = lookup(ours.tables, name);
    std::string in_theirs = lookup(source.tables, name);
    if (in_ours == in_theirs) continue;  // agree (incl. both deleted)
    bool ours_changed = in_ours != in_base;
    bool theirs_changed = in_theirs != in_base;
    if (ours_changed && theirs_changed) {
      return Status::Conflict(
          StrCat("merge conflict on table '", name, "': both '", to_branch,
                 "' and '", source_name, "' changed it since ", base_id));
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
  merge.parent_id = ours.id;
  merge.merge_parent_id = source.id;
  merge.message = StrCat("merge ", source_name, " into ", to_branch);
  merge.author = author;
  merge.timestamp_micros = clock_->NowMicros();
  merge.tables = std::move(merged);
  BAUPLAN_RETURN_NOT_OK(WriteCommit(&merge));
  BAUPLAN_RETURN_NOT_OK(WriteRef("branch", to_branch, merge.id));
  return MergeResult{merge.id, false};
}

}  // namespace bauplan::catalog
