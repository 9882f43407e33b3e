// Optimizer ablation (section 4.1 / future directions): "The AST
// provides opportunities to optimize the complete flow. For example,
// tasks can be re-arranged to minimize data transfers to the browser."
// We run the same dashboard with each optimizer pass toggled and report
// the transfer/latency effects of (a) endpoint projection (drop columns
// no widget consumes) and (b) filter pushdown (filter before expensive
// row-local maps).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "compile/fingerprint.h"
#include "compile/optimizer.h"
#include "dashboard/dashboard.h"
#include "bench_json.h"
#include "datagen/datagen.h"
#include "flow/flow_file.h"
#include "io/csv.h"
#include "common/string_util.h"

using namespace shareinsights;

namespace {

// A wide endpoint (source has many derived columns) of which the single
// widget consumes only two; plus a selective filter placed (as users
// write it) after several expression maps.
constexpr const char* kFlow = R"(
D:
  src: [key, value, score, text]
D.src:
  protocol: inline
  format: csv
  data: "__DATA__"

F:
  D.wide: D.src | T.m1 | T.m2 | T.m3 | T.m4 | T.late_filter
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
    expression: score + 1
    output: d2
  m3:
    type: map
    operator: expression
    expression: d1 + d2
    output: d3
  m4:
    type: map
    operator: expression
    expression: 'if(d3 > 100, 1, 0)'
    output: d4
  late_filter:
    type: filter_by
    filter_expression: value > 900

  group_for_widget:
    type: groupby
    groupby: [key]
    aggregates:
      - operator: sum
        apply_on: value
        out_field: total

W:
  chart:
    type: BarChart
    source: D.wide | T.group_for_widget
    x: key
    y: total

L:
  rows:
    - [span12: W.chart]
)";

struct Config {
  const char* name;
  bool optimize;
  bool pushdown;
  bool projection;
};

struct Row {
  std::string name;
  int64_t endpoint_bytes = 0;
  double run_ms = 0;
  double widget_ms = 0;
  int filters_pushed = 0;
  int columns_pruned = 0;
};

}  // namespace

int main() {
  std::cout << "=== Optimizer ablation: endpoint transfer & pipeline "
               "latency ===\n\n";
  TablePtr source = GenerateBenchTable(60000, 64, 9);
  std::string flow_text =
      ReplaceAll(kFlow, "__DATA__", WriteCsvString(*source));

  const Config kConfigs[] = {
      {"no optimizer", false, false, false},
      {"pushdown only", true, true, false},
      {"projection only", true, false, true},
      {"full optimizer", true, true, true},
  };

  std::vector<Row> rows;
  for (const Config& config : kConfigs) {
    auto file = ParseFlowFile(flow_text, "ablation");
    if (!file.ok()) {
      std::cerr << file.status() << "\n";
      return EXIT_FAILURE;
    }
    Dashboard::Options options;
    options.optimize = config.optimize;
    auto dashboard = Dashboard::Create(std::move(*file), options);
    if (!dashboard.ok()) {
      std::cerr << dashboard.status() << "\n";
      return EXIT_FAILURE;
    }
    // For the pass-level ablation re-compile explicitly.
    CompileOptions copts;
    copts.optimize = config.optimize;
    copts.filter_pushdown = config.pushdown;
    auto plan = CompileFlowFile((*dashboard)->flow_file(), copts);
    if (!plan.ok()) {
      std::cerr << plan.status() << "\n";
      return EXIT_FAILURE;
    }
    if (config.projection) {
      Status projected = ProjectEndpoints(
          &*plan, ComputeEndpointColumns((*dashboard)->flow_file()));
      if (!projected.ok()) {
        std::cerr << projected << "\n";
        return EXIT_FAILURE;
      }
      ComputePlanFingerprints(&*plan);
    }
    DataStore store;
    Executor executor;
    // Median of 3 runs.
    std::vector<double> times;
    ExecutionStats stats;
    for (int i = 0; i < 3; ++i) {
      store.Clear();
      auto s = executor.Execute(*plan, &store);
      if (!s.ok()) {
        std::cerr << s.status() << "\n";
        return EXIT_FAILURE;
      }
      stats = *s;
      times.push_back(s->wall_ms);
    }
    std::sort(times.begin(), times.end());

    // Widget latency over the resulting endpoint, via the dashboard.
    auto run = (*dashboard)->Run();
    if (!run.ok()) {
      std::cerr << run.status() << "\n";
      return EXIT_FAILURE;
    }
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 20; ++i) {
      auto data = (*dashboard)->WidgetData("chart");
      if (!data.ok()) {
        std::cerr << data.status() << "\n";
        return EXIT_FAILURE;
      }
    }
    double widget_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count() /
                       20.0;

    rows.push_back(Row{config.name, stats.endpoint_bytes, times[1],
                       widget_ms, plan->optimizer_report.filters_pushed,
                       plan->optimizer_report.columns_pruned});
  }

  std::cout << std::left << std::setw(18) << "config" << std::right
            << std::setw(16) << "endpoint bytes" << std::setw(12)
            << "run ms" << std::setw(14) << "widget ms" << std::setw(10)
            << "pushed" << std::setw(10) << "pruned" << "\n";
  std::cout << std::string(80, '-') << "\n";
  std::cout << std::fixed << std::setprecision(2);
  for (const Row& row : rows) {
    std::cout << std::left << std::setw(18) << row.name << std::right
              << std::setw(16) << row.endpoint_bytes << std::setw(12)
              << row.run_ms << std::setw(14) << row.widget_ms
              << std::setw(10) << row.filters_pushed << std::setw(10)
              << row.columns_pruned << "\n";
    std::string slug = row.name;
    for (char& c : slug) {
      if (c == ' ') c = '_';
    }
    benchjson::EmitBenchMillis(
        "optimizer_ablation/run/" + slug,
        "{\"endpoint_bytes\":" + std::to_string(row.endpoint_bytes) + "}",
        row.run_ms);
    benchjson::EmitBenchMillis("optimizer_ablation/widget/" + slug, "{}",
                               row.widget_ms);
  }
  double transfer_ratio =
      static_cast<double>(rows[0].endpoint_bytes) /
      std::max<int64_t>(1, rows[3].endpoint_bytes);
  std::cout << "\nendpoint transfer reduction (full optimizer): "
            << transfer_ratio << "x\n";
  std::cout << "paper shape (optimizer reduces data shipped to the "
               "browser and speeds the pipeline): "
            << (transfer_ratio > 1.5 && rows[3].run_ms <= rows[0].run_ms * 1.1
                    ? "REPRODUCED"
                    : "NOT REPRODUCED")
            << "\n";
  return EXIT_SUCCESS;
}
