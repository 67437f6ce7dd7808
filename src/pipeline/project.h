#ifndef BAUPLAN_PIPELINE_PROJECT_H_
#define BAUPLAN_PIPELINE_PROJECT_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "expectations/requirements.h"

namespace bauplan::pipeline {

/// What a pipeline node does.
enum class NodeKind {
  /// Produces a table artifact from a SQL query (one-query-one-artifact).
  kSqlModel,
  /// Audits an existing artifact with an expectation (DSL text); the
  /// `<table>_expectation` naming convention binds it to its target.
  kExpectation,
};

/// One node of a pipeline project: a file in the user's repo. DAG edges
/// are never declared — they are extracted from the SQL's FROM clauses and
/// the expectation naming convention (paper section 4.4.1: "functions are
/// all you need").
struct PipelineNode {
  std::string name;
  NodeKind kind = NodeKind::kSqlModel;
  /// kSqlModel: the SELECT text. kExpectation: the expectation DSL text.
  std::string code;
  /// Pinned packages (@requirements analog); drives the runtime's
  /// package cache.
  expectations::RequirementSet requirements;

  /// For expectations named "<table>_expectation", the audited table.
  Result<std::string> ExpectationTarget() const;
};

/// A user's pipeline: a named, ordered collection of nodes. The paper's
/// appendix example is exactly three nodes (trips, trips_expectation,
/// pickups).
class PipelineProject {
 public:
  explicit PipelineProject(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::vector<PipelineNode>& nodes() const { return nodes_; }

  /// Adds a SQL model node.
  Status AddSqlNode(
      const std::string& name, const std::string& sql,
      const expectations::RequirementSet& requirements = {});

  /// Adds an expectation node; `name` must follow the
  /// `<table>_expectation` convention.
  Status AddExpectationNode(
      const std::string& name, const std::string& dsl,
      const expectations::RequirementSet& requirements = {});

  const PipelineNode* FindNode(const std::string& name) const;

  /// Deterministic serialization of the whole project — the snapshot
  /// stored by the run registry.
  Bytes Snapshot() const;
  static Result<PipelineProject> FromSnapshot(const Bytes& bytes);

  /// Content fingerprint of the snapshot (code-is-data: same fingerprint
  /// on the same data version means identical results).
  std::string Fingerprint() const;

 private:
  Status AddNode(PipelineNode node);

  std::string name_;
  std::vector<PipelineNode> nodes_;
};

/// The paper's appendix pipeline, parameterized by the audit threshold:
/// trips (SQL over taxi_table), trips_expectation (mean(count) >
/// threshold), pickups (SQL over trips).
PipelineProject MakePaperTaxiPipeline(double expectation_threshold = 10.0);

/// A wide DAG exercising the wavefront scheduler: a diamond (base ->
/// short_trips/long_trips -> trip_balance) plus `fan_out` independent
/// per-dimension rollups of taxi_table and an expectation on base. With
/// `fan_out` >= 4 the DAG has at least four mutually independent nodes,
/// so a parallel run's makespan is bounded by the critical path while a
/// run at parallelism 1 pays the sum.
PipelineProject MakeWideTaxiPipeline(int fan_out = 4);

}  // namespace bauplan::pipeline

#endif  // BAUPLAN_PIPELINE_PROJECT_H_
