#include "core/run_report.h"

#include <sstream>

#include "common/strings.h"

namespace bauplan::core {

namespace {

const char* StartKindName(runtime::StartKind kind) {
  switch (kind) {
    case runtime::StartKind::kCold:
      return "cold";
    case runtime::StartKind::kFrozenResume:
      return "frozen_resume";
    case runtime::StartKind::kWarmReuse:
      return "warm_reuse";
  }
  return "unknown";
}

const char* NodeKindName(pipeline::NodeKind kind) {
  return kind == pipeline::NodeKind::kExpectation ? "expectation"
                                                  : "sql_model";
}

void AppendNodeJson(std::ostringstream& out, const NodeExecution& node) {
  out << "{\"name\":\"" << EscapeJson(node.name)
      << "\",\"kind\":\"" << NodeKindName(node.kind)
      << "\",\"output_rows\":" << node.output_rows
      << ",\"expectation_passed\":"
      << (node.expectation_passed ? "true" : "false")
      << ",\"cache_hit\":" << (node.cache_hit ? "true" : "false")
      << ",\"start_kind\":\"" << StartKindName(node.start_kind)
      << "\",\"worker\":" << node.worker << ",\"locality_hit\":"
      << (node.locality_hit ? "true" : "false")
      << ",\"queue_micros\":" << node.queue_micros
      << ",\"startup_micros\":" << node.startup_micros
      << ",\"transfer_micros\":" << node.transfer_micros
      << ",\"body_micros\":" << node.body_micros
      << ",\"total_micros\":" << node.total_micros << "}";
}

}  // namespace

void NodeExecution::ApplyInvocation(
    const runtime::InvocationReport& invocation) {
  start_kind = invocation.start_kind;
  worker = invocation.worker;
  locality_hit = invocation.locality_hit;
  queue_micros = invocation.queue_micros;
  startup_micros = invocation.startup_micros;
  transfer_micros = invocation.transfer_micros;
  body_micros = invocation.body_micros;
  total_micros = invocation.total_micros;
}

const NodeExecution* RunReport::FindNode(const std::string& name) const {
  for (const NodeExecution& node : nodes) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

std::string RunReport::ToJson() const {
  std::ostringstream out;
  out << "{\"version\":" << kSchemaVersion << ",\"run_id\":" << run_id
      << ",\"status\":\"" << EscapeJson(status)
      << "\",\"merged\":" << (merged ? "true" : "false")
      << ",\"merged_commit_id\":\""
      << EscapeJson(merged_commit_id)
      << "\",\"publish_micros\":" << publish_micros
      << ",\"total_micros\":" << total_micros
      << ",\"all_expectations_passed\":"
      << (all_expectations_passed ? "true" : "false");
  out << ",\"nodes\":[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out << ",";
    AppendNodeJson(out, nodes[i]);
  }
  out << "]";
  if (fused.has_value()) {
    out << ",\"fused\":";
    AppendNodeJson(out, *fused);
  }
  out << ",\"spill\":{\"gets\":" << spill_metrics.gets
      << ",\"puts\":" << spill_metrics.puts
      << ",\"bytes_read\":" << spill_metrics.bytes_read
      << ",\"bytes_written\":" << spill_metrics.bytes_written << "}";
  out << ",\"trace\":" << trace.ToJson();
  out << ",\"metrics\":" << metrics.ToJson();
  out << "}";
  return out.str();
}

}  // namespace bauplan::core
