// Measurement plumbing of the end-to-end benchmark: latency samples,
// Prometheus scrapes of /api/v1/metrics, request spans with per-layer
// self-time attribution, and the result report.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "io/json.h"
#include "obs/trace.h"
#include "server/api_server.h"

namespace perfbench {

using shareinsights::ApiServer;
using shareinsights::HttpRequest;
using shareinsights::HttpResponse;
using shareinsights::JsonValue;
using shareinsights::Span;
using shareinsights::SpanId;
using shareinsights::Tracer;

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------

/// A thread-safe bag of measurements with linear-interpolated quantiles.
class Samples {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
  }
  /// Adds a sample taken `at` seconds into its phase (see ChunkedQuantile).
  void Add(double v, double at) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
    at_.push_back(at);
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_.size();
  }
  double Quantile(double q) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }
  double Median() const { return Quantile(0.5); }
  /// The median over `chunks` consecutive (by time) equal-count chunks of
  /// each chunk's q-quantile. In an open loop one stall delays a run of
  /// consecutive requests; this keeps one such episode (outside load on
  /// a shared host) from deciding the whole run's figure. The plain
  /// Quantile() keeps reporting it.
  double ChunkedQuantile(double q, size_t chunks = 10) const {
    std::vector<std::pair<double, double>> timed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < at_.size(); ++i) {
        timed.emplace_back(at_[i], values_[i]);
      }
    }
    std::sort(timed.begin(), timed.end());
    size_t per_chunk = timed.size() / chunks;
    if (per_chunk == 0) return Quantile(q);
    Samples medians;
    for (size_t c = 0; c < chunks; ++c) {
      Samples chunk;
      for (size_t i = c * per_chunk; i < (c + 1) * per_chunk; ++i) {
        chunk.Add(timed[i].second);
      }
      medians.Add(chunk.Quantile(q));
    }
    return medians.Median();
  }
  double CountAbove(double limit) const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(
        std::count_if(values_.begin(), values_.end(),
                      [&](double v) { return v > limit; }));
  }
  double Mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (values_.empty()) return 0.0;
    double sum = 0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
  std::vector<double> at_;  // seconds into the phase, when given
};

/// Attempts and failures of one workload. A failure is an unexpected
/// status or a wrong output; each is logged to stderr (the first few).
class Outcomes {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const std::string& what) {
    int n = ++failed_;
    if (n <= 5) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  /// Counts one attempt; fails it unless `status` is in `expected`.
  bool Check(const HttpResponse& response, std::initializer_list<int> expected,
             const std::string& what) {
    Attempt();
    for (int status : expected) {
      if (response.status == status) return true;
    }
    Fail(what + " answered " + std::to_string(response.status) + ": " +
         response.body.substr(0, 200));
    return false;
  }
  /// Counts one attempt; fails it unless `ok`.
  bool Expect(bool ok, const std::string& what) {
    Attempt();
    if (!ok) Fail(what);
    return ok;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
};

// ---------------------------------------------------------------------
// /api/v1/metrics scrapes
// ---------------------------------------------------------------------

/// One Prometheus text scrape: series name (labels spliced in, as
/// `simd_kernel_dispatch_total{isa="avx2"}`) -> value.
using MetricsScrape = std::map<std::string, double>;

inline MetricsScrape ParsePrometheusText(const std::string& text) {
  MetricsScrape out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; a label set may hold spaces.
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                             nullptr);
  }
  return out;
}

inline MetricsScrape Scrape(ApiServer& server) {
  HttpResponse response = server.Get("/api/v1/metrics");
  if (response.status != 200) return {};
  return ParsePrometheusText(response.body);
}

inline double Get(const MetricsScrape& scrape, const std::string& name) {
  auto it = scrape.find(name);
  return it == scrape.end() ? 0.0 : it->second;
}

/// after - before for one series.
inline double Delta(const MetricsScrape& before, const MetricsScrape& after,
                    const std::string& name) {
  return Get(after, name) - Get(before, name);
}

/// The ISA whose labelled dispatch counter is highest, or "unknown".
inline std::string SelectedIsa(const MetricsScrape& scrape) {
  const std::string prefix = "simd_kernel_dispatch_total{isa=\"";
  std::string best = "unknown";
  double best_count = -1;
  for (const auto& [name, value] : scrape) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    size_t close = name.find('"', prefix.size());
    if (close == std::string::npos) continue;
    if (value > best_count) {
      best_count = value;
      best = name.substr(prefix.size(), close - prefix.size());
    }
  }
  return best;
}

// ---------------------------------------------------------------------
// Spans and layer attribution
// ---------------------------------------------------------------------

/// A span placed on one time axis (microseconds).
struct SpanRec {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  int parent = -1;  // index into the request's span vector; -1 = root
  std::map<std::string, std::string> attrs;
};

/// The layer (src/ module) a span's self time belongs to.
inline std::string LayerOf(const std::string& name) {
  auto starts = [&](const char* prefix) {
    return name.compare(0, std::char_traits<char>::length(prefix), prefix) ==
           0;
  };
  if (starts("bench.request")) return "server";
  if (starts("exec.task:") || starts("exec.delta_task:") || starts("ops."))
    return "ops";
  if (starts("exec.source:") || starts("io.")) return "io";
  if (starts("exec.")) return "exec";
  if (starts("compile")) return "compile";
  if (starts("cube.")) return "cube";
  if (starts("dashboard.")) return "dashboard";
  return "other";
}

/// Self time of every span of one request tree: each instant of the
/// root's interval goes to the innermost spans open at that instant,
/// split evenly when several run concurrently. The self times therefore
/// sum to the root span exactly, also where parallel children overlap.
/// `spans[0]` is the root; children must lie within their parents
/// (callers clip).
inline std::vector<double> SelfTimesUs(const std::vector<SpanRec>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  if (spans.empty()) return self;
  struct Event {
    int64_t t;
    int kind;  // 0 = end, 1 = start (ends first at equal times)
    int index;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end <= spans[i].start) continue;
    events.push_back({spans[i].start, 1, static_cast<int>(i)});
    events.push_back({spans[i].end, 0, static_cast<int>(i)});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.index < b.index;
  });
  std::vector<int> open_children(spans.size(), 0);
  std::vector<bool> open(spans.size(), false);
  std::set<int> frontier;
  int64_t last = events.empty() ? 0 : events.front().t;
  for (const Event& event : events) {
    if (event.t > last && !frontier.empty()) {
      double share =
          static_cast<double>(event.t - last) / frontier.size();
      for (int i : frontier) self[i] += share;
    }
    last = event.t;
    int i = event.index;
    int p = spans[i].parent;
    if (event.kind == 1) {
      open[i] = true;
      if (open_children[i] == 0) frontier.insert(i);
      if (p >= 0 && open[p]) {
        if (open_children[p]++ == 0) frontier.erase(p);
      }
    } else {
      open[i] = false;
      frontier.erase(i);
      if (p >= 0 && open[p]) {
        if (--open_children[p] == 0) frontier.insert(p);
      }
    }
  }
  return self;
}

/// Clips every span to its parent's interval (parents precede children).
inline void ClipToParents(std::vector<SpanRec>* spans) {
  for (SpanRec& span : *spans) {
    if (span.parent < 0) continue;
    const SpanRec& parent = (*spans)[span.parent];
    span.start = std::clamp(span.start, parent.start, parent.end);
    span.end = std::clamp(span.end, span.start, parent.end);
  }
}

/// Parses a run's Chrome trace (GET /api/v1/trace/<id>) into spans
/// shifted so its first root starts at `origin_us`; parents are
/// re-indexed within the returned vector, roots get `root_parent`.
inline std::vector<SpanRec> ChromeTraceSpans(const std::string& json,
                                             int64_t origin_us,
                                             int index_base,
                                             int root_parent) {
  std::vector<SpanRec> out;
  shareinsights::Result<JsonValue> doc = shareinsights::ParseJson(json);
  if (!doc.ok()) return out;
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr) return out;
  std::map<int64_t, int> by_id;
  std::vector<int64_t> parent_ids;
  int64_t first_root = -1;
  for (const JsonValue& event : events->array_items()) {
    SpanRec rec;
    const JsonValue* name = event.Find("name");
    const JsonValue* ts = event.Find("ts");
    const JsonValue* dur = event.Find("dur");
    const JsonValue* args = event.Find("args");
    if (name == nullptr || ts == nullptr || dur == nullptr ||
        args == nullptr) {
      continue;
    }
    rec.name = name->string_value();
    rec.start = static_cast<int64_t>(ts->number_value());
    rec.end = rec.start + static_cast<int64_t>(dur->number_value());
    int64_t id = 0;
    int64_t parent = 0;
    for (const auto& [key, value] : args->members()) {
      if (key == "span_id") {
        id = static_cast<int64_t>(value.number_value());
      } else if (key == "parent_id") {
        parent = static_cast<int64_t>(value.number_value());
      } else {
        rec.attrs[key] = value.string_value();
      }
    }
    if (parent == 0 && first_root < 0) first_root = rec.start;
    by_id[id] = static_cast<int>(out.size());
    parent_ids.push_back(parent);
    out.push_back(std::move(rec));
  }
  int64_t shift = first_root < 0 ? 0 : origin_us - first_root;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].start += shift;
    out[i].end += shift;
    auto it = by_id.find(parent_ids[i]);
    out[i].parent = (parent_ids[i] == 0 || it == by_id.end())
                        ? root_parent
                        : index_base + it->second;
  }
  return out;
}

/// Builds per-request span trees from one benchmark-owned Tracer: spans
/// named "bench.request:<kind>" are the roots the benchmark opened
/// around Handle calls (or the public function a route calls); every
/// other root span recorded inside a request's interval (the program's
/// compile / dashboard / cube spans) is parented under it. Requires
/// requests to run one at a time, which traced runs do.
struct RequestTree {
  std::string kind;
  std::vector<SpanRec> spans;  // spans[0] = the request
};

inline std::vector<RequestTree> BuildRequestTrees(const Tracer& tracer) {
  std::vector<Span> spans = tracer.Spans();  // start order
  std::vector<RequestTree> trees;
  std::map<SpanId, std::pair<int, int>> where;  // span id -> (tree, index)
  const std::string prefix = "bench.request:";
  int current = -1;
  int64_t current_end = -1;
  for (const Span& span : spans) {
    int64_t end = span.start_us + std::max<int64_t>(span.duration_us, 0);
    bool is_request =
        span.parent == 0 && span.name.compare(0, prefix.size(), prefix) == 0;
    if (is_request) {
      RequestTree tree;
      tree.kind = span.name.substr(prefix.size());
      SpanRec rec{span.name, span.start_us, end, -1, {}};
      tree.spans.push_back(rec);
      trees.push_back(std::move(tree));
      current = static_cast<int>(trees.size()) - 1;
      current_end = end;
      where[span.id] = {current, 0};
      continue;
    }
    int tree_index = -1;
    int parent_index = -1;
    if (span.parent != 0) {
      auto it = where.find(span.parent);
      if (it != where.end()) {
        tree_index = it->second.first;
        parent_index = it->second.second;
      }
    } else if (current >= 0 && span.start_us <= current_end) {
      tree_index = current;
      parent_index = 0;
    }
    if (tree_index < 0) continue;  // outside any request (set-up work)
    SpanRec rec{span.name, span.start_us, end, parent_index, {}};
    for (const auto& [key, value] : span.attributes) rec.attrs[key] = value;
    std::vector<SpanRec>& tree = trees[tree_index].spans;
    where[span.id] = {tree_index, static_cast<int>(tree.size())};
    tree.push_back(std::move(rec));
  }
  return trees;
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `e2e` and `layers` are keyed by the
/// names BENCHMARK.json declares; `extra` holds the workload-specific
/// user-path metrics printed in the human-readable table.
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::vector<std::pair<std::string, Metric>> extra;
  std::vector<std::string> notes;
};

inline std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
