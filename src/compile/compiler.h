#ifndef SHAREINSIGHTS_COMPILE_COMPILER_H_
#define SHAREINSIGHTS_COMPILE_COMPILER_H_

#include <string>

#include "compile/plan.h"
#include "compile/task_factory.h"
#include "flow/flow_file.h"
#include "obs/trace.h"

namespace shareinsights {

/// Options controlling flow-file compilation.
struct CompileOptions {
  /// Dashboard data directory (anchors relative `source:` paths and task
  /// `dict:` files — the SFTP 'data' folder of section 4.3.2).
  std::string base_dir;

  /// Resolver for widget-state references in tasks. Batch compilation
  /// leaves this null, which makes widget-referencing tasks a compile
  /// error in the F section (they belong to interaction flows).
  WidgetValueResolver* widgets = nullptr;

  /// Catalog of published data objects from other dashboards.
  const SharedSchemaSource* shared = nullptr;

  /// Master switch for the optimizer (ablation benches turn it off).
  bool optimize = true;
  /// Individual passes (meaningful when optimize is true). Endpoint
  /// projection needs the widgets, so the dashboard runs it on the
  /// compiled plan (compile/optimizer.h's ProjectEndpoints).
  bool filter_pushdown = true;

  /// Registries (defaults when null).
  AggregateRegistry* aggregates = nullptr;
  ScalarOpRegistry* scalars = nullptr;

  /// When set, compilation records phase spans (compile.validate,
  /// compile.schema_propagate, compile.optimize) under `trace_parent`
  /// and feeds the compile_* metrics. Null = no tracing overhead.
  Tracer* tracer = nullptr;
  SpanId trace_parent = 0;
};

/// Compiles a flow file's D/T/F sections into an ExecutionPlan:
///   1. binds every task against its flow context (schema-checked),
///   2. assembles the flow DAG, rejecting multiple producers and cycles,
///   3. propagates schemas from declared sources through every task,
///   4. runs the optimizer's filter pushdown.
/// Widget/Layout sections are compiled separately by the dashboard
/// runtime, which calls back into BuildTask for interaction flows.
Result<ExecutionPlan> CompileFlowFile(const FlowFile& file,
                                      const CompileOptions& options = {});

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_COMPILE_COMPILER_H_
