#include "dashboard/dashboard.h"

#include <gtest/gtest.h>

#include "compile/fingerprint.h"
#include "flow/flow_file.h"
#include "obs/trace.h"

namespace shareinsights {
namespace {

constexpr const char* kDashboard = R"(
D:
  sales: [region, month, amount]
D.sales:
  protocol: inline
  format: csv
  data: "region,month,amount
north,1,100
north,2,60
south,1,200
south,2,30
east,1,90
"
F:
  D.by_region_month: D.sales | T.agg
D.by_region_month:
  endpoint: true
T:
  agg:
    type: groupby
    groupby: [region, month]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  month_filter:
    type: filter_by
    filter_by: [month]
    filter_source: W.month_slider
  region_filter:
    type: filter_by
    filter_by: [region]
    filter_source: W.region_list
    filter_val: [text]
  sum_regions:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: total
        out_field: total
W:
  month_slider:
    type: Slider
    source: [1, 2]
    static: true
    range: true
  region_list:
    type: List
    source: D.by_region_month | T.sum_regions
    text: region
  chart:
    type: BarChart
    source: D.by_region_month | T.month_filter | T.region_filter | T.sum_regions
    x: region
    y: total
L:
  description: Sales
  rows:
    - [span3: W.month_slider, span3: W.region_list, span6: W.chart]
)";

std::unique_ptr<Dashboard> Make(const char* text = kDashboard,
                                bool use_cube = true) {
  auto file = ParseFlowFile(text, "test_dash");
  EXPECT_TRUE(file.ok()) << file.status();
  Dashboard::Options options;
  options.use_cube = use_cube;
  auto dashboard = Dashboard::Create(std::move(*file), options);
  EXPECT_TRUE(dashboard.ok()) << dashboard.status();
  return std::move(*dashboard);
}

TEST(DashboardTest, RunMaterializesEndpoints) {
  auto dashboard = Make();
  auto stats = dashboard->Run();
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto endpoint = dashboard->EndpointData("by_region_month");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ((*endpoint)->num_rows(), 5u);
}

TEST(DashboardTest, WidgetDataBeforeRunFails) {
  auto dashboard = Make();
  auto data = dashboard->WidgetData("chart");
  ASSERT_FALSE(data.ok());
  EXPECT_NE(data.status().message().find("Run()"), std::string::npos);
}

TEST(DashboardTest, StaticWidgetData) {
  auto dashboard = Make();
  ASSERT_TRUE(dashboard->Run().ok());
  auto data = dashboard->WidgetData("month_slider");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)->num_rows(), 2u);
  EXPECT_EQ((*data)->at(0, 0), Value(static_cast<int64_t>(1)));
}

TEST(DashboardTest, DefaultSliderSelectionIsFullRange) {
  auto dashboard = Make();
  ASSERT_TRUE(dashboard->Run().ok());
  // With the default full-range month selection, chart covers all rows.
  auto chart = dashboard->WidgetData("chart");
  ASSERT_TRUE(chart.ok()) << chart.status();
  EXPECT_EQ((*chart)->num_rows(), 3u);  // 3 regions
}

TEST(DashboardTest, SelectionFiltersDependentWidgets) {
  auto dashboard = Make();
  ASSERT_TRUE(dashboard->Run().ok());
  ASSERT_TRUE(dashboard->Select("region_list", {Value("north")}).ok());
  auto chart = dashboard->WidgetData("chart");
  ASSERT_TRUE(chart.ok()) << chart.status();
  ASSERT_EQ((*chart)->num_rows(), 1u);
  EXPECT_EQ((*chart)->at(0, 0), Value("north"));
  EXPECT_EQ((*chart)->at(0, 1), Value(static_cast<int64_t>(160)));

  // Narrow the slider too: only month 1 remains.
  ASSERT_TRUE(dashboard
                  ->SelectRange("month_slider", Value(static_cast<int64_t>(1)),
                                Value(static_cast<int64_t>(1)))
                  .ok());
  chart = dashboard->WidgetData("chart");
  ASSERT_TRUE(chart.ok());
  EXPECT_EQ((*chart)->at(0, 1), Value(static_cast<int64_t>(100)));

  // Clearing restores the unfiltered view.
  ASSERT_TRUE(dashboard->ClearSelection("region_list").ok());
  ASSERT_TRUE(dashboard->ClearSelection("month_slider").ok());
  chart = dashboard->WidgetData("chart");
  ASSERT_TRUE(chart.ok());
  EXPECT_EQ((*chart)->num_rows(), 3u);
}

TEST(DashboardTest, CubeAndOpsPathsAgree) {
  auto with_cube = Make(kDashboard, true);
  auto without_cube = Make(kDashboard, false);
  ASSERT_TRUE(with_cube->Run().ok());
  ASSERT_TRUE(without_cube->Run().ok());
  for (auto* d : {with_cube.get(), without_cube.get()}) {
    ASSERT_TRUE(d->Select("region_list", {Value("south")}).ok());
  }
  auto a = with_cube->WidgetData("chart");
  auto b = without_cube->WidgetData("chart");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ((*a)->num_rows(), (*b)->num_rows());
  for (size_t r = 0; r < (*a)->num_rows(); ++r) {
    for (size_t c = 0; c < (*a)->num_columns(); ++c) {
      EXPECT_EQ((*a)->at(r, c), (*b)->at(r, c));
    }
  }
  EXPECT_GT(with_cube->cube_hits(), 0);
  EXPECT_EQ(without_cube->cube_hits(), 0);
  EXPECT_GT(without_cube->ops_fallbacks(), 0);
}

TEST(DashboardTest, DependentsTracksFilterSources) {
  auto dashboard = Make();
  auto deps = dashboard->Dependents("region_list");
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0], "chart");
  EXPECT_EQ(dashboard->Dependents("month_slider").size(), 1u);
  EXPECT_TRUE(dashboard->Dependents("chart").empty());
}

TEST(DashboardTest, RefreshAllReturnsEveryDataWidget) {
  auto dashboard = Make();
  ASSERT_TRUE(dashboard->Run().ok());
  auto all = dashboard->RefreshAll();
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->size(), 3u);  // slider, list, chart
  EXPECT_TRUE(all->count("chart") > 0);
}

TEST(DashboardTest, RenderTextShowsLayoutAndSelections) {
  auto dashboard = Make();
  ASSERT_TRUE(dashboard->Run().ok());
  ASSERT_TRUE(dashboard->Select("region_list", {Value("east")}).ok());
  auto text = dashboard->RenderText();
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("Sales"), std::string::npos);
  EXPECT_NE(text->find("[BarChart] chart"), std::string::npos);
  EXPECT_NE(text->find("selection: east"), std::string::npos);
  EXPECT_NE(text->find("-- row 1 --"), std::string::npos);
}

TEST(DashboardTest, SelectOnNonSelectableWidgetFails) {
  auto dashboard = Make();
  auto status = dashboard->Select("chart", {Value("x")});
  // BarChart supports selection per the registry; use a widget that does
  // not: Streamgraph is non-selectable, but not present here — use an
  // unknown widget name instead for NotFound.
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(dashboard->Select("ghost", {}).code(), StatusCode::kNotFound);
}

TEST(DashboardTest, ValidationRejectsBadBindings) {
  std::string broken(kDashboard);
  size_t pos = broken.find("y: total");
  ASSERT_NE(pos, std::string::npos);
  broken.replace(pos, 8, "y: nosuch");
  auto file = ParseFlowFile(broken, "broken");
  ASSERT_TRUE(file.ok()) << file.status();
  auto dashboard = Dashboard::Create(std::move(*file));
  ASSERT_FALSE(dashboard.ok());
  EXPECT_EQ(dashboard.status().code(), StatusCode::kSchemaError);
  EXPECT_NE(dashboard.status().message().find("nosuch"), std::string::npos);
}

TEST(DashboardTest, ValidationRejectsUnknownWidgetType) {
  auto file = ParseFlowFile(R"(
W:
  w:
    type: HoloDeck
)");
  ASSERT_TRUE(file.ok());
  auto dashboard = Dashboard::Create(std::move(*file));
  ASSERT_FALSE(dashboard.ok());
  EXPECT_EQ(dashboard.status().code(), StatusCode::kNotFound);
}

TEST(DashboardTest, ValidationRejectsUnknownLayoutWidget) {
  auto file = ParseFlowFile(R"(
L:
  rows:
    - [span12: W.ghost]
)");
  ASSERT_TRUE(file.ok());
  auto dashboard = Dashboard::Create(std::move(*file));
  ASSERT_FALSE(dashboard.ok());
}

TEST(DashboardTest, ValidationRejectsUnknownFilterSourceWidget) {
  auto file = ParseFlowFile(R"(
D:
  src: [a]
D.src:
  protocol: inline
  data: "a
1
"
  endpoint: true
T:
  f:
    type: filter_by
    filter_by: [a]
    filter_source: W.ghost
W:
  grid:
    type: DataGrid
    source: D.src | T.f
)");
  ASSERT_TRUE(file.ok()) << file.status();
  auto dashboard = Dashboard::Create(std::move(*file));
  ASSERT_FALSE(dashboard.ok());
  EXPECT_NE(dashboard.status().message().find("ghost"), std::string::npos);
}

TEST(DashboardTest, IncrementalRunSkipsCleanFlows) {
  auto dashboard = Make();
  ASSERT_TRUE(dashboard->Run().ok());
  auto stats = dashboard->RunIncremental({});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->flows_executed, 0);
  stats = dashboard->RunIncremental({"sales"});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->flows_executed, 1);
}

// Compilation runs once per Create; endpoint projection rewrites the
// compiled plan in place and refreshes its fingerprints.
TEST(DashboardTest, CreateCompilesOnceAndFingerprintsTheProjectedPlan) {
  auto file = ParseFlowFile(R"(
D:
  sales: [region, month, amount]
D.sales:
  protocol: inline
  format: csv
  data: "region,month,amount
north,1,100
south,2,30
"
F:
  D.wide: D.sales | T.double_amount
D.wide:
  endpoint: true
T:
  double_amount:
    type: map
    operator: expression
    expression: amount * 2
    output: doubled
W:
  chart:
    type: BarChart
    source: D.wide
    x: region
    y: doubled
L:
  rows:
    - [span12: W.chart]
)",
                            "projected");
  ASSERT_TRUE(file.ok()) << file.status();
  Tracer tracer;
  Dashboard::Options options;
  options.tracer = &tracer;
  auto dashboard = Dashboard::Create(std::move(*file), options);
  ASSERT_TRUE(dashboard.ok()) << dashboard.status();
  int compile_spans = 0;
  for (const Span& span : tracer.Spans()) {
    if (span.name == "compile") ++compile_spans;
  }
  EXPECT_EQ(compile_spans, 1);

  const ExecutionPlan& plan = (*dashboard)->plan();
  EXPECT_EQ(plan.optimizer_report.projections_inserted, 1);
  EXPECT_EQ(plan.schemas.at("wide").names(),
            (std::vector<std::string>{"region", "doubled"}));
  for (const CompiledFlow& flow : plan.flows) {
    EXPECT_NE(flow.fingerprint, 0u);
    EXPECT_EQ(flow.fingerprint, FlowFingerprint(flow));
  }
}

// A widget rooted directly on a shared object records that object's
// schema and marks it a shared input, with the optimizer on (the default)
// as well as off.
TEST(DashboardTest, SharedRootWidgetKeepsItsSchemaAndSharedInput) {
  struct Catalog : SharedSchemaSource {
    std::optional<Schema> SharedSchema(const std::string& name) const override {
      if (name != "league") return std::nullopt;
      return Schema::FromNames({"team", "points"});
    }
  } catalog;
  for (bool optimize : {true, false}) {
    auto file = ParseFlowFile(R"(
D:
  sales: [region, amount]
D.sales:
  protocol: inline
  format: csv
  data: "region,amount
north,1
"
F:
  D.totals: D.sales | T.agg
D.totals:
  endpoint: true
T:
  agg:
    type: groupby
    groupby: [region]
W:
  standings:
    type: DataGrid
    source: D.league
L:
  rows:
    - [span12: W.standings]
)",
                              "shared_root");
    ASSERT_TRUE(file.ok()) << file.status();
    Dashboard::Options options;
    options.shared_schemas = &catalog;
    options.optimize = optimize;
    auto dashboard = Dashboard::Create(std::move(*file), options);
    ASSERT_TRUE(dashboard.ok()) << dashboard.status();
    const ExecutionPlan& plan = (*dashboard)->plan();
    ASSERT_EQ(plan.schemas.count("league"), 1u) << "optimize=" << optimize;
    EXPECT_EQ(plan.schemas.at("league").names(),
              (std::vector<std::string>{"team", "points"}));
    EXPECT_EQ(plan.shared_inputs.count("league"), 1u)
        << "optimize=" << optimize;
  }
}

TEST(WidgetRegistryTest, BuiltinsPresentAndCustomRegistrable) {
  auto& registry = WidgetTypeRegistry::Default();
  for (const char* type :
       {"BubbleChart", "Slider", "List", "WordCloud", "Streamgraph",
        "MapMarker", "HTML", "Layout", "TabLayout", "DataGrid"}) {
    EXPECT_TRUE(registry.Contains(type)) << type;
  }
  WidgetTypeRegistry fresh;
  WidgetTypeInfo custom;
  custom.type = "Sparkline";
  custom.data_attributes = {"x", "y"};
  ASSERT_TRUE(fresh.Register(custom).ok());
  EXPECT_EQ(fresh.Register(custom).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(fresh.Get("Sparkline")->data_attributes.size(), 2u);
}

TEST(EndpointColumnsTest, CollectsBindingsAndTaskInputsMinusProduced) {
  auto file = ParseFlowFile(kDashboard, "x");
  ASSERT_TRUE(file.ok());
  auto columns = ComputeEndpointColumns(*file);
  ASSERT_EQ(columns.count("by_region_month"), 1u);
  auto& required = columns["by_region_month"];
  // region, month, total: 'total' is consumed by sum_regions.apply_on
  // from the endpoint (it exists there) — it is also produced by the
  // groupby, so requirements keep what the first consuming stage needs.
  EXPECT_NE(std::find(required.begin(), required.end(), "region"),
            required.end());
  EXPECT_NE(std::find(required.begin(), required.end(), "month"),
            required.end());
  EXPECT_NE(std::find(required.begin(), required.end(), "total"),
            required.end());
}

}  // namespace
}  // namespace shareinsights
