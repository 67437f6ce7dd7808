#include "catalog/transaction.h"

#include "common/logging.h"
#include "common/strings.h"

namespace bauplan::catalog {

Result<TransactionResult> RunTransformAuditWrite(
    Catalog* catalog, const std::string& base_branch,
    const std::string& author,
    const std::function<Status(Catalog*, const std::string&)>& body) {
  // A store error reading the ref is reported as itself, not as a
  // missing branch.
  BAUPLAN_RETURN_NOT_OK(catalog->BranchHead(base_branch).status());
  BAUPLAN_ASSIGN_OR_RETURN(
      std::string run_branch,
      catalog->CreateEphemeralBranch(base_branch, "run"));

  Status body_status = body(catalog, run_branch);
  if (!body_status.ok()) {
    // Audit failed (or transform errored): drop the dirty branch so the
    // base branch never observes partial results.
    Status cleanup = catalog->DeleteBranch(run_branch);
    if (!cleanup.ok()) {
      LogWarning(StrCat("failed to delete ephemeral branch ", run_branch,
                        ": ", cleanup.ToString()));
    }
    return body_status.WithContext(
        StrCat("transform-audit-write on '", base_branch,
               "' rolled back (ephemeral branch ", run_branch, ")"));
  }

  BAUPLAN_ASSIGN_OR_RETURN(MergeResult merged,
                           catalog->Merge(run_branch, base_branch, author));
  BAUPLAN_RETURN_NOT_OK(catalog->DeleteBranch(run_branch));
  return TransactionResult{merged.commit_id, run_branch};
}

}  // namespace bauplan::catalog
