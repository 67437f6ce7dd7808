#ifndef BAUPLAN_CACHE_FINGERPRINT_H_
#define BAUPLAN_CACHE_FINGERPRINT_H_

#include <map>
#include <set>
#include <string>

#include "catalog/catalog.h"
#include "pipeline/dag.h"

namespace bauplan::cache {

/// Per-node cache keys for one DAG execution at one data version.
/// A key is empty when the node is uncacheable this run (an input's
/// content id could not be resolved); empty keys propagate downstream so
/// a node never caches against an unknown input.
struct NodeFingerprints {
  /// Node name -> cache key (16 hex chars), or "" for uncacheable.
  std::map<std::string, std::string> key_of;

  /// Key for `name`, or "" when absent/uncacheable.
  const std::string& Find(const std::string& name) const;
};

/// Derives content-addressed cache keys for every selected node of `dag`,
/// walking in execution order so upstream keys exist before their
/// consumers need them. Each key is
///
///   Hash(code fingerprint, ordered input content ids, env spec,
///        expectation specs)
///
/// where:
///   - the code fingerprint covers the node's name, kind, code text and
///     requirement set (the package/env spec);
///   - input content ids are, in DAG extraction order, the cache key of
///     each selected upstream node (Merkle chaining: a change anywhere
///     upstream re-keys the whole downstream cone) and the immutable
///     table-metadata key of each catalog input (source tables, plus
///     replayed upstreams outside `selected`). Content ids never mention
///     branch names, so a fork of `main` resolves to the same metadata
///     keys as `main` and reuses its artifacts for free;
///   - for SQL nodes, the specs of every expectation auditing the node
///     (cached artifacts are post-audit: changing an audit must
///     invalidate what it vouched for).
///
/// Execution knobs (engine, threads, memory budget, parallelism) are
/// deliberately excluded: the engine's determinism contract makes result
/// bytes identical across all of them, so a cache filled at --parallel 4
/// serves --parallel 1 and vice versa.
///
/// Resolution failures are not errors: the affected node (and its cone)
/// just gets an empty key. The catalog is read once per call.
NodeFingerprints ComputeNodeFingerprints(
    const pipeline::Dag& dag, const std::set<std::string>& selected,
    const catalog::Catalog* catalog, const std::string& ref);

/// Same, over a table map the caller already pinned (no catalog reads).
NodeFingerprints ComputeNodeFingerprints(
    const pipeline::Dag& dag, const std::set<std::string>& selected,
    const catalog::PinnedTables& tables);

}  // namespace bauplan::cache

#endif  // BAUPLAN_CACHE_FINGERPRINT_H_
