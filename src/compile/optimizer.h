#ifndef SHAREINSIGHTS_COMPILE_OPTIMIZER_H_
#define SHAREINSIGHTS_COMPILE_OPTIMIZER_H_

#include <map>
#include <string>
#include <vector>

#include "compile/plan.h"

namespace shareinsights {

/// Pass switches for OptimizePlan (each independently ablatable).
struct OptimizerOptions {
  /// Moves filter_by stages ahead of row-local map stages so downstream
  /// work sees fewer rows.
  bool filter_pushdown = true;
};

/// Rewrites the plan in place. Safe by construction: every rewrite
/// preserves flow semantics (filters only move across operators that
/// neither produce nor consume the filtered columns). Resets
/// plan->optimizer_report to this pass's counts.
Status OptimizePlan(ExecutionPlan* plan, const OptimizerOptions& options);

/// Appends a projection to flows feeding endpoints, dropping columns no
/// widget consumes — the paper's "minimize data transfers to the
/// browser" optimization (section 4.1). `endpoint_columns` holds the
/// required columns per endpoint (from widget data bindings); endpoints
/// absent from it are left unprojected. Adds to plan->optimizer_report.
/// The projected chains change, so callers recompute the flow
/// fingerprints (ComputePlanFingerprints) afterwards.
Status ProjectEndpoints(
    ExecutionPlan* plan,
    const std::map<std::string, std::vector<std::string>>& endpoint_columns);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_COMPILE_OPTIMIZER_H_
