#include "compile/optimizer.h"

#include <gtest/gtest.h>

#include "compile/compiler.h"
#include "compile/fingerprint.h"
#include "exec/executor.h"
#include "flow/flow_file.h"

namespace shareinsights {
namespace {

constexpr const char* kFlow = R"(
D:
  src: [key, value, note]
D.src:
  protocol: inline
  format: csv
  data: "key,value,note
a,1,alpha beta
b,900,gamma delta
b,950,epsilon zeta
"
F:
  D.wide: D.src | T.m1 | T.m2 | T.late_filter
D.wide:
  endpoint: true
T:
  m1:
    type: map
    operator: expression
    expression: value * 2
    output: d1
  m2:
    type: map
    operator: expression
    expression: d1 + 1
    output: d2
  late_filter:
    type: filter_by
    filter_expression: value > 500
)";

ExecutionPlan Compile(bool pushdown, bool projection,
                      std::map<std::string, std::vector<std::string>>
                          endpoint_columns = {}) {
  auto file = ParseFlowFile(kFlow);
  EXPECT_TRUE(file.ok()) << file.status();
  CompileOptions options;
  options.optimize = true;
  options.filter_pushdown = pushdown;
  auto plan = CompileFlowFile(*file, options);
  EXPECT_TRUE(plan.ok()) << plan.status();
  if (projection) {
    EXPECT_TRUE(ProjectEndpoints(&*plan, endpoint_columns).ok());
    ComputePlanFingerprints(&*plan);
  }
  return *plan;
}

TEST(OptimizerTest, PushdownMovesFilterToFront) {
  ExecutionPlan plan = Compile(true, false);
  ASSERT_EQ(plan.flows.size(), 1u);
  EXPECT_EQ(plan.flows[0].ops[0]->name(), "filter_by");
  EXPECT_EQ(plan.optimizer_report.filters_pushed, 2);
}

TEST(OptimizerTest, PushdownStopsWhenColumnNotAvailable) {
  // Filter on a column produced by m1 cannot cross m1.
  std::string flow_text(kFlow);
  size_t pos = flow_text.find("filter_expression: value > 500");
  ASSERT_NE(pos, std::string::npos);
  flow_text.replace(pos, 30, "filter_expression: d1 > 500   ");
  auto file = ParseFlowFile(flow_text);
  ASSERT_TRUE(file.ok()) << file.status();
  CompileOptions options;
  auto plan = CompileFlowFile(*file, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Filter moved past m2 but not past m1.
  EXPECT_EQ(plan->flows[0].ops[0]->name(), "map:expression");
  EXPECT_EQ(plan->flows[0].ops[1]->name(), "filter_by");
  EXPECT_EQ(plan->optimizer_report.filters_pushed, 1);
}

TEST(OptimizerTest, PushdownPreservesResults) {
  ExecutionPlan optimized = Compile(true, false);
  ExecutionPlan baseline = Compile(false, false);
  DataStore store_a, store_b;
  Executor executor;
  ASSERT_TRUE(executor.Execute(optimized, &store_a).ok());
  ASSERT_TRUE(executor.Execute(baseline, &store_b).ok());
  auto a = *store_a.Get("wide");
  auto b = *store_b.Get("wide");
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->schema().names(), b->schema().names());
  for (size_t r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->num_columns(); ++c) {
      EXPECT_EQ(a->at(r, c), b->at(r, c));
    }
  }
}

TEST(OptimizerTest, EndpointProjectionDropsUnusedColumns) {
  ExecutionPlan plan =
      Compile(false, true, {{"wide", {"key", "value"}}});
  EXPECT_EQ(plan.optimizer_report.projections_inserted, 1);
  EXPECT_EQ(plan.optimizer_report.columns_pruned, 3);  // note, d1, d2
  EXPECT_EQ(plan.schemas.at("wide").names(),
            (std::vector<std::string>{"key", "value"}));
}

TEST(OptimizerTest, ProjectionSkipsWhenAllColumnsNeeded) {
  ExecutionPlan plan = Compile(
      false, true, {{"wide", {"key", "value", "note", "d1", "d2"}}});
  EXPECT_EQ(plan.optimizer_report.projections_inserted, 0);
}

TEST(OptimizerTest, ProjectionIgnoresEndpointsWithoutRequirements) {
  ExecutionPlan plan = Compile(false, true, {});
  EXPECT_EQ(plan.optimizer_report.projections_inserted, 0);
}

TEST(OptimizerTest, RequirementsProducedDownstreamAreIgnored) {
  // "total" doesn't exist in the endpoint schema (a widget groupby
  // produces it); projection still prunes using the rest.
  ExecutionPlan plan =
      Compile(false, true, {{"wide", {"key", "value", "total"}}});
  EXPECT_EQ(plan.optimizer_report.projections_inserted, 1);
  EXPECT_EQ(plan.schemas.at("wide").names(),
            (std::vector<std::string>{"key", "value"}));
}

TEST(OptimizerTest, DisabledOptimizerLeavesPlanAlone) {
  auto file = ParseFlowFile(kFlow);
  ASSERT_TRUE(file.ok());
  CompileOptions options;
  options.optimize = false;
  auto plan = CompileFlowFile(*file, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->flows[0].ops.back()->name(), "filter_by");
  EXPECT_EQ(plan->optimizer_report.filters_pushed, 0);
}

}  // namespace
}  // namespace shareinsights
