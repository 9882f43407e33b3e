#include "compile/compiler.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "common/value.h"
#include "compile/fingerprint.h"
#include "compile/optimizer.h"
#include "obs/metrics.h"

namespace shareinsights {

std::string CompiledFlow::ToString() const {
  std::string out = Join(outputs, ", ");
  out += " <- (" + Join(inputs, ", ") + ")";
  for (const TableOperatorPtr& op : ops) out += " | " + op->name();
  return out;
}

std::string ExecutionPlan::ToString() const {
  std::ostringstream out;
  out << "ExecutionPlan {\n";
  out << "  sources:";
  for (const auto& [name, decl] : sources) out << " " << name;
  out << "\n";
  if (!shared_inputs.empty()) {
    out << "  shared:";
    for (const std::string& name : shared_inputs) out << " " << name;
    out << "\n";
  }
  for (const CompiledFlow& flow : flows) {
    out << "  flow: " << flow.ToString() << "\n";
    out << "    schema: " << flow.output_schema.ToString() << "\n";
  }
  out << "  endpoints:";
  for (const std::string& name : endpoints) out << " " << name;
  out << "\n";
  for (const auto& [publish_name, data_name] : published) {
    out << "  publish: " << publish_name << " -> " << data_name << "\n";
  }
  out << "}\n";
  return out.str();
}

namespace {

// Resolution category for every data object referenced by the flows.
enum class NodeOrigin { kSource, kFlow, kShared };

/// Compile-time validation of the governance/robustness D-section params
/// (`retry.*`, `timeout_ms`, `mem_budget`). The load path deliberately
/// keeps fallback-on-malformed behaviour for schemaless connector params
/// (NumericParam in io/connector.cc), so the compiler is where a typo'd
/// or negative value becomes a hard, entity-named Diagnostics error
/// instead of a silently clamped runtime surprise.
Status ValidateGovernanceParams(const std::string& name,
                                const DataSourceParams& params) {
  constexpr const char* kNumericKeys[] = {
      "retry.max_attempts", "retry.backoff_ms", "retry.backoff_multiplier",
      "retry.jitter_seed",  "timeout_ms",       "mem_budget"};
  for (const char* key : kNumericKeys) {
    if (!params.Has(key)) continue;
    const std::string text = params.Get(key);
    Result<double> parsed = Value(text).ToDouble();
    if (!parsed.ok() || *parsed < 0) {
      return Status::InvalidArgument(
          "data object '" + name + "': parameter '" + std::string(key) +
          "' must be a non-negative number, got '" + text + "'");
    }
    if (std::string(key) == "retry.max_attempts" && *parsed < 1) {
      return Status::InvalidArgument(
          "data object '" + name +
          "': 'retry.max_attempts' counts total attempts including the "
          "first and must be at least 1, got '" + text + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Result<ExecutionPlan> CompileFlowFile(const FlowFile& file,
                                      const CompileOptions& options) {
  auto compile_start = std::chrono::steady_clock::now();
  Tracer* tracer = options.tracer;
  ScopedSpan compile_span(tracer, "compile", options.trace_parent);
  compile_span.AddAttribute("flows",
                            static_cast<int64_t>(file.flows.size()));

  ExecutionPlan plan;
  std::unordered_map<std::string, size_t> producer;  // data -> flow index
  std::unordered_map<std::string, NodeOrigin> origin;
  std::vector<size_t> topo_order;
  {
  ScopedSpan validate_span(tracer, "compile.validate", compile_span.id());

  // ------------------------------------------------------------------
  // 1. Map every data object to its producing flow (at most one).
  // ------------------------------------------------------------------
  for (size_t i = 0; i < file.flows.size(); ++i) {
    for (const std::string& output : file.flows[i].outputs) {
      auto [it, inserted] = producer.emplace(output, i);
      if (!inserted) {
        return Status::SchemaError(
            "data object '" + output +
            "' is produced by more than one flow (flows " +
            file.flows[it->second].ToString() + " and " +
            file.flows[i].ToString() + ")");
      }
      const DataObjectDecl* decl = file.FindData(output);
      if (decl != nullptr && decl->IsSource()) {
        return Status::SchemaError("data object '" + output +
                                   "' has a source configuration but is "
                                   "also produced by a flow");
      }
    }
  }

  // ------------------------------------------------------------------
  // 2. Classify every referenced data object.
  // ------------------------------------------------------------------
  auto classify = [&](const std::string& name) -> Status {
    if (origin.count(name) > 0) return Status::OK();
    if (producer.count(name) > 0) {
      origin[name] = NodeOrigin::kFlow;
      return Status::OK();
    }
    const DataObjectDecl* decl = file.FindData(name);
    if (decl != nullptr && decl->IsSource()) {
      SI_RETURN_IF_ERROR(ValidateGovernanceParams(name, decl->params));
      origin[name] = NodeOrigin::kSource;
      plan.sources[name] = *decl;
      if (decl->columns.empty()) {
        return Status::SchemaError(
            "source data object '" + name +
            "' declares no schema; flow-file data objects must call out "
            "their payload schema (section 3.2)");
      }
      plan.schemas[name] = decl->DeclaredSchema();
      return Status::OK();
    }
    // Fall back to the shared catalog (published by another dashboard).
    if (options.shared != nullptr) {
      std::optional<Schema> shared = options.shared->SharedSchema(name);
      if (shared.has_value()) {
        origin[name] = NodeOrigin::kShared;
        plan.shared_inputs.insert(name);
        plan.schemas[name] = *shared;
        return Status::OK();
      }
    }
    return Status::NotFound(
        "data object '" + name +
        "' is not a configured source, not produced by any flow, and not "
        "found among shared data objects");
  };
  for (const FlowDecl& flow : file.flows) {
    for (const std::string& input : flow.inputs) {
      SI_RETURN_IF_ERROR(classify(input));
    }
  }
  // Every configured source is part of the plan even when no flow reads
  // it: the platform still materializes it for widgets, the data
  // explorer, and the REST API. (Sources without a declared schema are
  // only an error when a flow consumes them.)
  for (const DataObjectDecl& decl : file.data_objects) {
    if (decl.IsSource() && origin.count(decl.name) == 0 &&
        !decl.columns.empty()) {
      SI_RETURN_IF_ERROR(ValidateGovernanceParams(decl.name, decl.params));
      origin[decl.name] = NodeOrigin::kSource;
      plan.sources[decl.name] = decl;
      plan.schemas[decl.name] = decl.DeclaredSchema();
    }
  }

  // ------------------------------------------------------------------
  // 3. Topological order over flows (Kahn's algorithm).
  // ------------------------------------------------------------------
  size_t n = file.flows.size();
  std::vector<int> pending(n, 0);
  std::vector<std::vector<size_t>> dependents(n);
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& input : file.flows[i].inputs) {
      auto it = producer.find(input);
      if (it != producer.end()) {
        // Self-loops are cycles too (D.x : D.x | T.t).
        dependents[it->second].push_back(i);
        ++pending[i];
      }
    }
  }
  // Kahn with an index-ordered scan per round: deterministic order that
  // preserves file order among independent flows.
  std::vector<bool> emitted(n, false);
  for (;;) {
    bool progressed = false;
    for (size_t i = 0; i < n; ++i) {
      if (!emitted[i] && pending[i] == 0) {
        topo_order.push_back(i);
        emitted[i] = true;
        for (size_t dep : dependents[i]) --pending[dep];
        progressed = true;
      }
    }
    if (!progressed) break;
  }
  if (topo_order.size() != n) {
    std::vector<std::string> cyclic;
    for (size_t i = 0; i < n; ++i) {
      if (!emitted[i]) cyclic.push_back(file.flows[i].ToString());
    }
    return Status::CycleError(
        "flows form a cycle; the flow collection must be a DAG: " +
        Join(cyclic, " ; "));
  }
  }  // compile.validate

  // ------------------------------------------------------------------
  // 4. Bind tasks and propagate schemas in topo order.
  // ------------------------------------------------------------------
  {
  ScopedSpan propagate_span(tracer, "compile.schema_propagate",
                            compile_span.id());
  TaskBindContext context;
  context.base_dir = options.base_dir;
  context.widgets = options.widgets;
  context.aggregates = options.aggregates;
  context.scalars = options.scalars;

  for (size_t idx : topo_order) {
    const FlowDecl& decl = file.flows[idx];
    CompiledFlow flow;
    flow.inputs = decl.inputs;
    flow.outputs = decl.outputs;
    flow.task_names = decl.tasks;
    context.input_names = decl.inputs;

    std::vector<Schema> input_schemas;
    for (const std::string& input : decl.inputs) {
      auto it = plan.schemas.find(input);
      if (it == plan.schemas.end()) {
        return Status::Internal("schema for '" + input +
                                "' missing during compilation");
      }
      input_schemas.push_back(it->second);
    }

    Schema current;
    for (size_t t = 0; t < decl.tasks.size(); ++t) {
      const TaskDecl* task = file.FindTask(decl.tasks[t]);
      if (task == nullptr) {
        return Status::NotFound("flow '" + decl.ToString() +
                                "' references unknown task '" +
                                decl.tasks[t] + "'");
      }
      SI_ASSIGN_OR_RETURN(TableOperatorPtr op,
                          BuildTask(*task, file, context));
      std::vector<Schema> stage_inputs;
      if (t == 0) {
        stage_inputs = input_schemas;
      } else {
        stage_inputs = {current};
      }
      if (op->num_inputs() != stage_inputs.size() &&
          !(t == 0 && op->num_inputs() == 1 && stage_inputs.size() == 1)) {
        if (t > 0 && op->num_inputs() > 1) {
          return Status::SchemaError(
              "task '" + task->name + "' in flow '" + decl.ToString() +
              "' consumes " + std::to_string(op->num_inputs()) +
              " inputs and must be the first task of the flow");
        }
        return Status::SchemaError(
            "task '" + task->name + "' expects " +
            std::to_string(op->num_inputs()) + " inputs but flow '" +
            decl.ToString() + "' supplies " +
            std::to_string(stage_inputs.size()));
      }
      Result<Schema> propagated = op->OutputSchema(stage_inputs);
      if (!propagated.ok()) {
        return propagated.status().WithContext(
            "while checking task '" + task->name + "' in flow '" +
            decl.ToString() + "'");
      }
      current = std::move(*propagated);
      flow.ops.push_back(std::move(op));
    }
    flow.output_schema = current;
    for (const std::string& output : decl.outputs) {
      plan.schemas[output] = current;
    }
    plan.flows.push_back(std::move(flow));
  }
  }  // compile.schema_propagate

  // ------------------------------------------------------------------
  // 5. Endpoints and publications.
  // ------------------------------------------------------------------
  for (const DataObjectDecl& decl : file.data_objects) {
    if (decl.endpoint) plan.endpoints.push_back(decl.name);
    if (!decl.publish.empty()) {
      auto [it, inserted] = plan.published.emplace(decl.publish, decl.name);
      if (!inserted) {
        return Status::AlreadyExists("publish name '" + decl.publish +
                                     "' used by both '" + it->second +
                                     "' and '" + decl.name + "'");
      }
    }
  }

  // ------------------------------------------------------------------
  // 6. Optimizer passes.
  // ------------------------------------------------------------------
  if (options.optimize) {
    ScopedSpan optimize_span(tracer, "compile.optimize", compile_span.id());
    OptimizerOptions opt;
    opt.filter_pushdown = options.filter_pushdown;
    SI_RETURN_IF_ERROR(OptimizePlan(&plan, opt));
  }

  // Fingerprint the settled operator chains (the optimizer mutates them,
  // so this must come last) for the shared result cache.
  ComputePlanFingerprints(&plan);

  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics.GetCounter("compiles_total", "flow files compiled successfully")
      ->Increment();
  metrics
      .GetHistogram("compile_ms", Histogram::LatencyBoundsMs(),
                    "wall time of one CompileFlowFile call")
      ->Observe(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - compile_start)
                    .count());
  return plan;
}

}  // namespace shareinsights
