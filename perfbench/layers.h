// Per-layer accounting of a traced run: request trees (benchmark spans
// around Handle plus the program's own spans) reduced to per-kind,
// per-layer and per-span totals.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "loops.h"

namespace perfbench {

/// The tasks of the benchmark's flows; each gets ops.task.<task>.ms and
/// ops.task.<task>.rows_per_s.
inline const std::vector<std::string>& BenchTasks() {
  static const std::vector<std::string> tasks = {
      // IPL processing flow
      "players_pipeline", "players_count", "join_player_team",
      "teams_pipeline", "teams_count", "join_dim_teams",
      "teams_pipeline_region", "teams_regions_count", "join_dim_teams_two",
      "join_lat_long", "word_date_extraction", "words_count", "topwords",
      "facts_pipeline", "facts_project", "long_words_only",
      "long_words_count",
      // service-desk explorer
      "explorer_columns"};
  return tasks;
}

/// Tasks whose work is expression evaluation (src/expr).
inline bool IsExpressionTask(const std::string& task) {
  return task == "long_words_only";
}

/// The per-layer metric names, units and directions BENCHMARK.json
/// declares, in report order.
struct LayerMetricDecl {
  std::string name;
  std::string unit;
  std::string better;
};

inline std::vector<LayerMetricDecl> LayerMetricDecls() {
  std::vector<LayerMetricDecl> out = {
      {"server.request_self_ms", "ms", "lower"},
      {"server.response_bytes", "bytes", "lower"},
      {"server.append_outside_dashboard_ms", "ms", "lower"},
      {"flow.parse_ms", "ms", "lower"},
      {"compile.ms", "ms", "lower"},
      {"compile.passes_per_create", "count", "lower"},
      {"dashboard.create_self_ms", "ms", "lower"},
      {"dashboard.append_ms", "ms", "lower"},
      {"exec.load_sources_ms", "ms", "lower"},
      {"exec.self_ms", "ms", "lower"},
      {"exec.append_self_ms", "ms", "lower"},
      {"exec.flows_delta_ratio", "ratio", "higher"},
      {"ops.adhoc.ms", "ms", "lower"},
      {"expr.rows_per_s", "1/s", "higher"},
      {"io.fetch_ms", "ms", "lower"},
      {"io.parse_ms", "ms", "lower"},
      {"io.parse_mb_per_s", "MB/s", "higher"},
      {"table.concat_ms", "ms", "lower"},
      {"table.dict_entries", "count", "lower"},
      {"cube.build_ms", "ms", "lower"},
      {"cube.query_ms", "ms", "lower"},
      {"cube.append_ms", "ms", "lower"},
      {"share.cache_hit_ratio", "ratio", "higher"},
      {"share.scan_dedup_ratio", "ratio", "higher"},
      {"share.cache_bytes", "bytes", "lower"},
      {"store.wal_bytes_per_append", "bytes", "lower"},
      {"store.fsyncs_per_append", "count", "lower"},
      {"store.snapshots", "count", "lower"},
      {"store.replayed_records", "count", "lower"},
      {"trace.overhead_pct", "%", "lower"},
  };
  for (const std::string& task : BenchTasks()) {
    out.push_back({"ops.task." + task + ".ms", "ms", "lower"});
    out.push_back({"ops.task." + task + ".rows_per_s", "1/s", "higher"});
  }
  return out;
}

/// Totals over every traced request of one run.
struct TraceStats {
  std::map<std::string, int> requests;        // kind -> count
  std::map<std::string, double> request_ms;   // kind -> summed duration
  // kind -> layer -> summed self time
  std::map<std::string, std::map<std::string, double>> layer_ms;
  std::map<std::string, double> span_ms;       // span name -> summed duration
  std::map<std::string, double> span_self_ms;  // span name -> summed self
  std::map<std::string, int> span_count;
  std::map<std::string, double> task_rows;  // task -> summed rows_in
  double fetch_bytes = 0;                   // payload bytes of io.fetch
  double max_attribution_error_ms = 0;

  void Add(std::vector<SpanRec> spans, const std::string& kind) {
    if (spans.empty()) return;
    ClipToParents(&spans);
    std::vector<double> self = SelfTimesUs(spans);
    double request = (spans[0].end - spans[0].start) / 1000.0;
    ++requests[kind];
    request_ms[kind] += request;
    double attributed = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& span = spans[i];
      double self_ms = self[i] / 1000.0;
      attributed += self_ms;
      layer_ms[kind][LayerOf(span.name)] += self_ms;
      span_ms[span.name] += (span.end - span.start) / 1000.0;
      span_self_ms[span.name] += self_ms;
      ++span_count[span.name];
      if (span.name == "io.fetch") {
        auto bytes = span.attrs.find("bytes");
        if (bytes != span.attrs.end()) {
          fetch_bytes += std::strtod(bytes->second.c_str(), nullptr);
        }
      }
      for (const char* prefix : {"exec.task:", "exec.delta_task:"}) {
        std::string p(prefix);
        if (span.name.compare(0, p.size(), p) != 0) continue;
        auto rows = span.attrs.find("rows_in");
        if (rows != span.attrs.end()) {
          task_rows[span.name] += std::strtod(rows->second.c_str(), nullptr);
        }
      }
    }
    max_attribution_error_ms =
        std::max(max_attribution_error_ms, std::abs(attributed - request));
  }

  int Requests(const std::string& kind) const {
    auto it = requests.find(kind);
    return it == requests.end() ? 0 : it->second;
  }
  int TotalRequests() const {
    int n = 0;
    for (const auto& [kind, count] : requests) n += count;
    return n;
  }
  double RequestMs(const std::string& kind) const {
    auto it = request_ms.find(kind);
    return it == request_ms.end() ? 0 : it->second;
  }
  double LayerMs(const std::string& kind, const std::string& layer) const {
    auto it = layer_ms.find(kind);
    if (it == layer_ms.end()) return 0;
    auto jt = it->second.find(layer);
    return jt == it->second.end() ? 0 : jt->second;
  }
  double LayerMsAllKinds(const std::string& layer) const {
    double sum = 0;
    for (const auto& [kind, layers] : layer_ms) {
      auto it = layers.find(layer);
      if (it != layers.end()) sum += it->second;
    }
    return sum;
  }
  /// Summed duration and count of spans whose name starts with `prefix`
  /// (or equals it when `exact`).
  double SpanMs(const std::string& prefix, bool exact = false,
                int* count = nullptr) const {
    double sum = 0;
    int n = 0;
    for (const auto& [name, ms] : span_ms) {
      bool match = exact ? name == prefix
                         : name.compare(0, prefix.size(), prefix) == 0;
      if (!match) continue;
      sum += ms;
      n += span_count.at(name);
    }
    if (count != nullptr) *count = n;
    return sum;
  }
  double SpanSelfMs(const std::string& name) const {
    auto it = span_self_ms.find(name);
    return it == span_self_ms.end() ? 0 : it->second;
  }
};

/// Reduces one traced pass: request trees from the benchmark tracer,
/// with the k-th "run" request given the k-th stored run trace.
inline TraceStats Analyze(const Tracer& tracer,
                          const std::vector<std::string>& run_traces) {
  TraceStats stats;
  size_t next_run = 0;
  for (RequestTree& tree : BuildRequestTrees(tracer)) {
    if (tree.kind == "run" && next_run < run_traces.size()) {
      std::vector<SpanRec> run =
          ChromeTraceSpans(run_traces[next_run++], tree.spans[0].start,
                           static_cast<int>(tree.spans.size()), 0);
      tree.spans.insert(tree.spans.end(), run.begin(), run.end());
    }
    stats.Add(std::move(tree.spans), tree.kind);
  }
  return stats;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Fills the span-derived per-layer metrics every workload shares:
/// per-request server self time, task times and rates, expression rate,
/// source fetch/parse, cube build/query/append.
inline void FillSpanLayers(const TraceStats& stats, const Client& client,
                           Report* report) {
  auto set = [&](const std::string& name, double v, const char* unit) {
    report->layers[name] = Metric{v, unit};
  };
  int requests = stats.TotalRequests();
  set("server.request_self_ms",
      Ratio(stats.LayerMsAllKinds("server"), requests), "ms");
  set("server.response_bytes", client.response_bytes().Mean(), "bytes");
  int runs = stats.Requests("run");
  set("exec.load_sources_ms",
      Ratio(stats.SpanMs("exec.load_sources", true), runs), "ms");
  set("exec.self_ms", Ratio(stats.LayerMs("run", "exec"), runs), "ms");
  double expr_rows = 0;
  double expr_ms = 0;
  for (const std::string& task : BenchTasks()) {
    int n = 0;
    double ms = stats.SpanMs("exec.task:" + task, true, &n);
    int dn = 0;
    ms += stats.SpanMs("exec.delta_task:" + task, true, &dn);
    n += dn;
    double rows = 0;
    for (const char* prefix : {"exec.task:", "exec.delta_task:"}) {
      auto it = stats.task_rows.find(prefix + task);
      if (it != stats.task_rows.end()) rows += it->second;
    }
    set("ops.task." + task + ".ms", Ratio(ms, n), "ms");
    set("ops.task." + task + ".rows_per_s", Ratio(rows, ms / 1000.0), "1/s");
    if (IsExpressionTask(task)) {
      expr_rows += rows;
      expr_ms += ms;
    }
  }
  set("expr.rows_per_s", Ratio(expr_rows, expr_ms / 1000.0), "1/s");
  double fetch_ms = stats.SpanMs("io.fetch", true);
  double parse_ms = stats.SpanMs("io.parse", true);
  set("io.fetch_ms", Ratio(fetch_ms, runs), "ms");
  set("io.parse_ms", Ratio(parse_ms, runs), "ms");
  set("io.parse_mb_per_s", Ratio(stats.fetch_bytes / 1e6, parse_ms / 1000.0),
      "MB/s");
  set("cube.build_ms", Ratio(stats.SpanMs("cube.build:"), runs), "ms");
  // Cube scans: single queries open cube.query, batched ones (the
  // SharedScanBatcher path) one cube.batch per shared scan.
  int queries = 0, batches = 0;
  double query_ms = stats.SpanMs("cube.query", true, &queries) +
                    stats.SpanMs("cube.batch", true, &batches);
  set("cube.query_ms", Ratio(query_ms, queries + batches), "ms");
  int appends = stats.Requests("append");
  set("cube.append_ms", Ratio(stats.SpanMs("cube.append:"), appends), "ms");
}

/// Fills the create-path layers from traced "create" requests: the two
/// compile passes, and the dashboard's own share once the benchmark-timed
/// flow parse (`parse_ms`, mean) is taken out.
inline void FillCreateLayers(const TraceStats& stats, double parse_ms,
                             Report* report) {
  int creates = stats.Requests("create");
  int passes = 0;
  double compile_ms = stats.SpanMs("compile", true, &passes);
  report->layers["flow.parse_ms"] = Metric{parse_ms, "ms"};
  report->layers["compile.ms"] = Metric{Ratio(compile_ms, creates), "ms"};
  report->layers["compile.passes_per_create"] =
      Metric{Ratio(passes, creates), "count"};
  report->layers["dashboard.create_self_ms"] = Metric{
      creates > 0
          ? (stats.RequestMs("create") - compile_ms) / creates - parse_ms
          : 0.0,
      "ms"};
}

/// Checks that every traced request's layer self times add up to its
/// span, and notes the result and the selected ISA.
inline void TraceNotes(const TraceStats& stats, const MetricsScrape& scrape,
                       Outcomes* outcomes, Report* report) {
  outcomes->Expect(stats.max_attribution_error_ms < 1e-3,
                   "layer self times do not add up to the request span");
  report->notes.push_back(
      "traced requests " + std::to_string(stats.TotalRequests()) +
      ", max |sum(layer self) - request| = " +
      FormatNumber(stats.max_attribution_error_ms) + " ms");
  report->notes.push_back("simd_isa " + SelectedIsa(scrape) +
                          "; POST .../run always records its own trace");
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
