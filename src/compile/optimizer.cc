#include "compile/optimizer.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "ops/filter.h"
#include "ops/project.h"

namespace shareinsights {

namespace {

// True for operators that only append columns to existing rows (possibly
// replicating or dropping whole rows): a filter over pre-existing columns
// commutes with them.
bool IsRowLocalAppender(const TableOperator& op) {
  return StartsWith(op.name(), "map:") || op.name() == "parallel";
}

// Schema entering stage `i` of the flow (stage 0 sees the flow inputs).
Result<std::vector<Schema>> StageInputSchemas(const ExecutionPlan& plan,
                                              const CompiledFlow& flow,
                                              size_t stage) {
  std::vector<Schema> current;
  for (const std::string& input : flow.inputs) {
    auto it = plan.schemas.find(input);
    if (it == plan.schemas.end()) {
      return Status::Internal("optimizer: schema for '" + input +
                              "' missing");
    }
    current.push_back(it->second);
  }
  for (size_t i = 0; i < stage; ++i) {
    SI_ASSIGN_OR_RETURN(Schema next, flow.ops[i]->OutputSchema(current));
    current = {std::move(next)};
  }
  return current;
}

Status PushdownFilters(ExecutionPlan* plan, OptimizerReport* report) {
  for (CompiledFlow& flow : plan->flows) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 1; i < flow.ops.size(); ++i) {
        const auto* filter =
            dynamic_cast<const FilterExpressionOp*>(flow.ops[i].get());
        if (filter == nullptr) continue;
        if (!IsRowLocalAppender(*flow.ops[i - 1])) continue;
        // The filter may move before ops[i-1] only when every column it
        // references already exists there.
        SI_ASSIGN_OR_RETURN(std::vector<Schema> before,
                            StageInputSchemas(*plan, flow, i - 1));
        if (before.size() != 1) continue;  // fan-in stage: stay put
        std::vector<std::string> columns;
        filter->expression()->CollectColumns(&columns);
        bool movable = true;
        for (const std::string& column : columns) {
          if (!before[0].Contains(column)) {
            movable = false;
            break;
          }
        }
        if (!movable) continue;
        std::swap(flow.ops[i - 1], flow.ops[i]);
        std::swap(flow.task_names[i - 1], flow.task_names[i]);
        ++report->filters_pushed;
        changed = true;
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status OptimizePlan(ExecutionPlan* plan, const OptimizerOptions& options) {
  OptimizerReport report;
  if (options.filter_pushdown) {
    SI_RETURN_IF_ERROR(PushdownFilters(plan, &report));
  }
  plan->optimizer_report = report;
  return Status::OK();
}

Status ProjectEndpoints(
    ExecutionPlan* plan,
    const std::map<std::string, std::vector<std::string>>& endpoint_columns) {
  OptimizerReport* report = &plan->optimizer_report;
  std::unordered_set<std::string> endpoint_set(plan->endpoints.begin(),
                                               plan->endpoints.end());
  for (CompiledFlow& flow : plan->flows) {
    if (flow.outputs.size() != 1) continue;
    const std::string& output = flow.outputs[0];
    if (endpoint_set.count(output) == 0) continue;
    auto required_it = endpoint_columns.find(output);
    if (required_it == endpoint_columns.end()) continue;
    std::unordered_set<std::string> required(required_it->second.begin(),
                                             required_it->second.end());
    // Keep columns in schema order. Required names absent from the
    // schema are columns the widget's own interaction tasks produce
    // downstream (e.g. a groupby out_field); they need nothing from the
    // endpoint and are ignored here.
    std::vector<std::string> keep;
    for (const Field& field : flow.output_schema.fields()) {
      if (required.count(field.name) > 0) keep.push_back(field.name);
    }
    if (keep.empty() || keep.size() == flow.output_schema.num_fields()) {
      continue;
    }
    TableOperatorPtr project = ProjectOp::Keep(keep);
    SI_ASSIGN_OR_RETURN(Schema projected,
                        project->OutputSchema({flow.output_schema}));
    report->columns_pruned += static_cast<int>(
        flow.output_schema.num_fields() - projected.num_fields());
    ++report->projections_inserted;
    flow.ops.push_back(std::move(project));
    flow.task_names.push_back("<endpoint-projection>");
    flow.output_schema = projected;
    plan->schemas[output] = std::move(projected);
  }
  return Status::OK();
}

}  // namespace shareinsights
