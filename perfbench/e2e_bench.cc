// End-to-end benchmark of the platform's user paths through
// ApiServer::Handle: cold batch runs, widget queries, and streaming
// appends with restart recovery.
//
//   e2e_bench --workload <ipl_batch|widget_queries|stream_append>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   e2e_bench --list-metrics
//
// Prints a human-readable table, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct E2eMetricDecl {
  const char* name;
  const char* unit;
};

// Reported by every workload; what "latency" and "throughput" measure
// depends on the workload (see README.md). Tail percentiles are in the
// user-path table only: on a shared host they spread across runs by
// more than any bound a regression gate could use.
constexpr E2eMetricDecl kE2eMetrics[] = {
    {"setup_s", "s"},           {"latency_ms.p50", "ms"},
    {"throughput_per_s", "1/s"}, {"read_ms.p50", "ms"},
    {"peak_rss_mb", "MB"},
};

void ListMetrics() {
  std::printf("end_to_end:\n");
  for (const E2eMetricDecl& m : kE2eMetrics) {
    std::printf("  %s %s\n", m.name, m.unit);
  }
  std::printf("per_layer:\n");
  for (const LayerMetricDecl& m : LayerMetricDecls()) {
    std::printf("  %s %s %s\n", m.name.c_str(), m.unit.c_str(),
                m.better.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.seconds <= 0) return Usage();
  if (options.work_dir.empty()) options.work_dir = ".bench_build/work";
  options.work_dir = std::filesystem::absolute(options.work_dir).string();
  ResetDir(options.work_dir);

  Outcomes outcomes;
  Report report;
  bool ok = false;
  if (options.workload == "ipl_batch") {
    ok = RunIplBatch(options, &outcomes, &report);
  } else if (options.workload == "widget_queries") {
    ok = RunWidgetQueries(options, &outcomes, &report);
  } else if (options.workload == "stream_append") {
    ok = RunStreamAppend(options, &outcomes, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  if (!ok) {
    std::fprintf(stderr, "workload %s: set-up failed\n",
                 options.workload.c_str());
    return 1;
  }

  // Human-readable part.
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("  %-40s %16s %s\n", "user-path metric", "value", "unit");
  for (const auto& [name, metric] : report.extra) {
    std::printf("  %-40s %16.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  double failed_ratio =
      outcomes.attempted() > 0
          ? static_cast<double>(outcomes.failed()) / outcomes.attempted()
          : 0.0;
  std::printf("  %-40s %16.4f %s\n", "failed_ratio", failed_ratio, "ratio");

  // Result line.
  std::string metrics;
  auto add = [&](const std::string& name, const Metric& metric) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + FormatNumber(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
  };
  if (options.trace) {
    for (const LayerMetricDecl& decl : LayerMetricDecls()) {
      auto it = report.layers.find(decl.name);
      add(decl.name, it != report.layers.end() ? it->second
                                               : Metric{0.0, decl.unit});
    }
  } else {
    for (const E2eMetricDecl& decl : kE2eMetrics) {
      auto it = report.e2e.find(decl.name);
      if (it == report.e2e.end()) {
        std::fprintf(stderr, "workload did not report %s\n", decl.name);
        return 1;
      }
      add(decl.name, it->second);
    }
  }
  int64_t attempted = std::max<int64_t>(outcomes.attempted(), 1);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              outcomes.failed() == 0 ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(outcomes.failed()), metrics.c_str());
  return 0;
}
