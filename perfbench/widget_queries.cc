// widget_queries: interactive ad-hoc queries over a service-desk
// explorer endpoint (~200k generated tickets). The mix (60/20/20):
//   * string-eq filters + groupby, which the server lowers onto the cube
//     and its SharedScanBatcher; half of them come from a small hot set
//     (result-cache hits after first use), half are never repeated;
//   * int-eq / range filters + groupby, which fall through to
//     FilterCompareOp and GroupByOp;
//   * filtered paged browses.
// Phase A is an open loop at a fixed rate (one generator, at most three
// senders, latency from each request's due time); a one-client closed
// loop then measures service times; phase B is a closed loop with one
// client per core.

#include <algorithm>
#include <memory>

#include "common/date_util.h"
#include "datagen/datagen.h"
#include "flows.h"
#include "layers.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "share/result_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

using shareinsights::Dashboard;
using shareinsights::Status;
using shareinsights::TablePtr;

constexpr int kTickets = 200000;
constexpr double kPhaseARate = 250;  // requests/s, about a quarter of phase B
constexpr int kPhaseASenders = 3;
constexpr int kPhaseBClients = 4;
constexpr double kLatencyLimitMs = 100;
constexpr int kWarmupQueries = 200;
constexpr int kHotQueries = 16;
constexpr int kReferenceSamples = 24;
constexpr int kAdhocSamples = 30;

const char* const kCategories[] = {"network", "hardware", "software",
                                   "access", "email"};
const char* const kAggs[] = {"count", "avg", "max", "sum"};

struct Filter {
  std::string column, cmp, literal;
};

/// One widget query, kept structured so the reference check can replay
/// it through the operators.
struct Query {
  enum Kind { kCube, kOps, kBrowse } kind = kCube;
  std::vector<Filter> filters;
  std::string group, agg;  // empty for browses
  size_t offset = 0;

  std::string Url() const {
    std::string url = "/api/v1/desk/ds/explorer";
    for (const Filter& f : filters) {
      url += "/filter/" + f.column + "/" + f.cmp + "/" + f.literal;
    }
    if (kind == kBrowse) {
      return url + "?limit=20&offset=" + std::to_string(offset);
    }
    return url + "/groupby/" + group + "/" + agg + "/resolution_days";
  }
};

std::string DayString(uint64_t day) {
  return shareinsights::FormatDateTime(
      shareinsights::DateTime::FromUnixSeconds(
          static_cast<int64_t>(15700 + day % 361) * 86400),
      "yyyy-MM-dd");
}

Query HotQuery(int j) {
  static const char* const kGroups[] = {"priority", "created", "description"};
  Query q;
  q.filters = {{"category", "eq", kCategories[j % 5]}};
  q.group = kGroups[(j / 5) % 3];
  q.agg = kAggs[j % 4];
  return q;
}

// The k-th never-repeated cube query: (day, category, group, agg) runs
// through 361 * 5 * 2 * 4 distinct combinations.
Query FreshQuery(uint64_t seed, uint64_t k) {
  static const char* const kGroups[] = {"priority", "description"};
  Query q;
  q.filters = {{"created", "eq", DayString(k + seed * 37)},
               {"category", "eq", kCategories[(k / 361) % 5]}};
  q.group = kGroups[(k / 1805) % 2];
  q.agg = kAggs[(k / 3610) % 4];
  return q;
}

struct DeskState {
  std::unique_ptr<ApiServer> server;
  uint64_t seed = 0;
  std::atomic<uint64_t> next_op{0};
  std::atomic<uint64_t> next_fresh{0};
  std::atomic<int64_t> cache_hits{0};
  std::atomic<int64_t> cache_misses{0};
  std::string run_trace;  // Chrome trace of the set-up run
};

Query NextQuery(DeskState* state) {
  uint64_t i = state->next_op++;
  uint64_t w = Mix(state->seed ^ 0x5eed, i);
  double u = Unit(Mix(state->seed, i));
  // Most widget queries are category picks, which lower onto the cube.
  // The median of the mix falls among the cube misses: single scans,
  // which a loaded shared host slows least.
  if (u < 0.6) {
    if (w & 1) return HotQuery(static_cast<int>((w >> 1) % kHotQueries));
    return FreshQuery(state->seed, state->next_fresh++);
  }
  // Operator-path queries all keep about a quarter of the rows.
  Query q;
  if (u < 0.8) {
    static const char* const kOpsAggs[] = {"avg", "max", "count"};
    q.kind = Query::kOps;
    switch ((w >> 8) % 3) {
      case 0:
        q.filters = {{"priority", "eq", std::to_string(1 + w % 4)}};
        break;
      case 1:
        q.filters = {{"priority", "ge", "4"}};
        break;
      default:
        q.filters = {{"priority", "le", "1"}};
        break;
    }
    q.group = "category";
    q.agg = kOpsAggs[(w >> 12) % 3];
    return q;
  }
  q.kind = Query::kBrowse;
  q.filters = {{"category", "eq", kCategories[w % 5]}};
  q.offset = 20 * ((w >> 4) % 50);
  return q;
}

// The path a query took, for per-path service times.
enum Path { kCubeHit, kCubeMiss, kOpsPath, kBrowsePath, kNumPaths, kFailed };
const char* const kPathNames[] = {"cube_hit", "cube_miss", "ops", "browse"};

// Sends one query and checks its status; cube-path answers must carry
// the envelope's cache field.
Path Issue(DeskState* state, Client* client, const Query& query,
           Outcomes* outcomes, double* ms) {
  static const char* const kKinds[] = {"cube_query", "ops_query", "browse"};
  HttpResponse response = client->Get(kKinds[query.kind], query.Url(), ms);
  if (!outcomes->Check(response, {200}, query.Url())) return kFailed;
  if (query.kind == Query::kOps) return kOpsPath;
  if (query.kind == Query::kBrowse) return kBrowsePath;
  size_t at = response.body.find("\"cache\"");
  if (at == std::string::npos) {
    outcomes->Expect(false, "cube-eligible query fell through: " + query.Url());
    return kFailed;
  }
  size_t value = response.body.find('"', at + 7);
  if (response.body.compare(value, 5, "\"hit\"") == 0) {
    ++state->cache_hits;
    return kCubeHit;
  }
  ++state->cache_misses;
  return kCubeMiss;
}

std::unique_ptr<DeskState> Setup(const RunOptions& options, int index,
                                 Tracer* tracer, Outcomes* outcomes) {
  auto state = std::make_unique<DeskState>();
  state->seed = options.seed;
  std::string dir = options.work_dir + "/desk-" + std::to_string(index);
  ResetDir(dir);
  shareinsights::TicketDataOptions data_options;
  data_options.num_tickets = kTickets;
  data_options.seed = options.seed;
  if (!outcomes->Expect(
          shareinsights::GenerateTickets(data_options).WriteTo(dir).ok(),
          "write tickets")) {
    return nullptr;
  }
  std::string text = Fill(kTicketFlow, {{"__FILE__", dir + "/tickets.csv"}});
  state->server = std::make_unique<ApiServer>();
  Client client(state->server.get(), tracer);
  Status created = client.Wrap(
      "create",
      [&] {
        Dashboard::Options dash_options;
        dash_options.tracer = tracer;
        return state->server->CreateDashboard("desk", text, dash_options);
      },
      nullptr);
  if (!outcomes->Expect(created.ok(), "create desk: " + created.ToString())) {
    return nullptr;
  }
  HttpResponse run = client.Post("run", "/api/v1/dashboards/desk/run", "");
  if (!outcomes->Check(run, {200}, "desk run")) return nullptr;
  auto envelope = shareinsights::ParseJson(run.body);
  if (envelope.ok()) {
    state->run_trace = FetchRunTrace(state->server.get(), *envelope);
  }
  Client warm(state->server.get(), nullptr);
  for (int i = 0; i < kWarmupQueries; ++i) {
    Issue(state.get(), &warm, NextQuery(state.get()), outcomes, nullptr);
  }
  return state;
}

// The query replayed through FilterCompareOp and GroupByOp over the
// endpoint's materialized table.
shareinsights::Result<TablePtr> Reference(Dashboard* dashboard,
                                          const Query& query) {
  SI_ASSIGN_OR_RETURN(TablePtr current, dashboard->EndpointData("explorer"));
  shareinsights::ExecContext ctx;
  for (const Filter& f : query.filters) {
    SI_ASSIGN_OR_RETURN(auto cmp,
                        shareinsights::FilterCompareOp::ParseCmp(f.cmp));
    shareinsights::FilterCompareOp op(f.column, cmp,
                                      shareinsights::Value::Infer(f.literal));
    SI_ASSIGN_OR_RETURN(current, op.Execute({current}, ctx));
  }
  SI_ASSIGN_OR_RETURN(
      auto groupby,
      shareinsights::GroupByOp::Create(
          {query.group}, {shareinsights::AggregateSpec{
                             query.agg, "resolution_days",
                             query.agg + "_resolution_days"}}));
  return groupby->Execute({current}, ctx);
}

// Rows as a sorted list of canonical strings (numbers to 9 digits), so
// row order and last-bit float differences do not count.
std::vector<std::string> CanonicalRows(const JsonValue& rows) {
  std::vector<std::string> out;
  for (const JsonValue& row : rows.array_items()) {
    std::string line;
    for (const auto& [key, value] : row.members()) {
      char buf[64];
      if (value.kind() == JsonValue::Kind::kNumber) {
        std::snprintf(buf, sizeof(buf), "%.9g", value.number_value());
        line += key + "=" + buf + ";";
      } else {
        line += key + "=" + value.Serialize() + ";";
      }
    }
    out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Cube-path answers for a seeded sample must equal the operator
// reference over EndpointData.
void CheckAgainstReference(DeskState* state, Outcomes* outcomes) {
  auto dashboard = state->server->GetDashboard("desk");
  if (!outcomes->Expect(dashboard.ok(), "desk dashboard")) return;
  for (int s = 0; s < kReferenceSamples; ++s) {
    Query query = s < kHotQueries
                      ? HotQuery(s)
                      : FreshQuery(state->seed, Mix(state->seed, s) % 14440);
    HttpResponse response = state->server->Get(query.Url());
    if (!outcomes->Check(response, {200}, "reference " + query.Url())) {
      continue;
    }
    auto body = shareinsights::ParseJson(response.body);
    auto expected = Reference(*dashboard, query);
    if (!outcomes->Expect(body.ok() && body->Find("rows") != nullptr &&
                              body->Find("cache") != nullptr &&
                              expected.ok(),
                          "reference inputs for " + query.Url())) {
      continue;
    }
    outcomes->Expect(CanonicalRows(*body->Find("rows")) ==
                         CanonicalRows(shareinsights::TableToJson(**expected)),
                     "cube answer differs from operator reference: " +
                         query.Url());
  }
}

}  // namespace

bool RunWidgetQueries(const RunOptions& options, Outcomes* outcomes,
                      Report* report) {
  Samples setup_s;
  std::unique_ptr<DeskState> state;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    state.reset();
    shareinsights::ResultCache::Process().Clear();
    Clock::time_point start = Clock::now();
    state = Setup(options, r, nullptr, outcomes);
    if (state == nullptr) return false;
    setup_s.Add(MsSince(start) / 1000.0);
    // Memory after the first set-up and its warm-up: a fixed amount of
    // work, so the figure does not grow with the operations a faster
    // build fits into the timed phase.
    if (r == 0) report->e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  if (outcomes->failed() > 0) return false;

  // Trace runs keep half their time for the traced pass below.
  double span = options.trace ? options.seconds / 2 : options.seconds;
  MetricsScrape before = Scrape(*state->server);
  int64_t hits0 = state->cache_hits, misses0 = state->cache_misses;
  Client client(state->server.get(), nullptr);
  // Phase A: open loop at a fixed rate.
  Samples open_ms, lateness_ms;
  OpenLoop(
      kPhaseARate, span * 0.2, kPhaseASenders,
      [&](int64_t) {
        Issue(state.get(), &client, NextQuery(state.get()), outcomes, nullptr);
      },
      &open_ms, &lateness_ms);
  // One client issuing the mix back to back: each query's service time
  // without other clients competing for the cores. Also the untraced
  // baseline of the traced pass.
  Samples service_ms;
  Samples service_path_ms[kNumPaths];
  Clock::time_point service_start = Clock::now();
  ClosedLoop(
      1, span * 0.3,
      [&](int, int64_t) {
        double ms = 0;
        Path path =
            Issue(state.get(), &client, NextQuery(state.get()), outcomes, &ms);
        service_ms.Add(ms, MsSince(service_start) / 1000.0);
        if (path < kNumPaths) service_path_ms[path].Add(ms);
      },
      nullptr);
  // Phase B: closed loop, one client per core.
  Samples closed_ms;
  Samples path_ms[kNumPaths];
  Completions completions;
  ClosedLoop(
      kPhaseBClients, span * 0.5,
      [&](int, int64_t) {
        double ms = 0;
        Path path =
            Issue(state.get(), &client, NextQuery(state.get()), outcomes, &ms);
        closed_ms.Add(ms);
        if (path < kNumPaths) path_ms[path].Add(ms);
      },
      &completions);
  MetricsScrape after = Scrape(*state->server);
  CheckAgainstReference(state.get(), outcomes);

  double hits = static_cast<double>(state->cache_hits - hits0);
  double misses = static_cast<double>(state->cache_misses - misses0);
  double counter_hits = Delta(before, after, "cache_hits_total");
  double counter_misses = Delta(before, after, "cache_misses_total");
  report->e2e["setup_s"] = {setup_s.Median(), "s"};
  // Latencies come from the one-client pass. The open loop's (phase A)
  // include thread wake-ups and queueing, and phase B's include waiting
  // for a core among four clients; a loaded shared host inflates both by
  // more than any usable bound, so they are in the user-path table.
  report->e2e["latency_ms.p50"] = {service_ms.ChunkedQuantile(0.5), "ms"};
  report->e2e["throughput_per_s"] = {completions.MedianRate(), "1/s"};
  report->e2e["read_ms.p50"] = {service_path_ms[kCubeHit].Median(), "ms"};
  Extra(report, "phase_a_rate", kPhaseARate, "1/s");
  Extra(report, "query_ms.p50", open_ms.Median(), "ms");
  Extra(report, "query_ms.p50_chunked", open_ms.ChunkedQuantile(0.5), "ms");
  Extra(report, "query_ms.p99", open_ms.Quantile(0.99), "ms");
  Extra(report, "query_qps", completions.MedianRate(), "1/s");
  Extra(report, "generator_lateness_ms.p99", lateness_ms.Quantile(0.99),
        "ms");
  Extra(report, "phase_a_over_100ms", open_ms.CountAbove(kLatencyLimitMs),
        "count");
  Extra(report, "cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  Extra(report, "service_ms.p50", service_ms.Median(), "ms");
  Extra(report, "closed_ms.p50", closed_ms.Median(), "ms");
  for (int p = 0; p < kNumPaths; ++p) {
    Extra(report, std::string("service_ms.p50.") + kPathNames[p],
          service_path_ms[p].Median(), "ms");
    Extra(report, std::string("closed_ms.p50.") + kPathNames[p],
          path_ms[p].Median(), "ms");
  }
  report->notes.push_back(
      "cache hit ratio: envelopes " + FormatNumber(Ratio(hits, hits + misses)) +
      ", counters " +
      FormatNumber(Ratio(counter_hits, counter_hits + counter_misses)));
  report->notes.push_back("simd_isa " + SelectedIsa(after));
  if (!options.trace) return true;

  report->layers["share.cache_hit_ratio"] = {Ratio(hits, hits + misses),
                                             "ratio"};
  report->layers["share.scan_dedup_ratio"] = {
      Ratio(Delta(before, after, "shared_scan_dedup_total"),
            Delta(before, after, "shared_scan_batch_size_sum")),
      "ratio"};
  report->layers["share.cache_bytes"] = {Get(after, "cache_bytes"), "bytes"};

  // Traced one-client pass on a fresh set-up.
  state.reset();
  shareinsights::ResultCache::Process().Clear();
  Tracer tracer;
  state = Setup(options, 1, &tracer, outcomes);
  if (state == nullptr) return false;
  Client traced(state->server.get(), &tracer);
  Samples traced_ms;
  ClosedLoop(
      1, options.seconds / 3,
      [&](int, int64_t) {
        double ms = 0;
        Issue(state.get(), &traced, NextQuery(state.get()), outcomes, &ms);
        traced_ms.Add(ms);
      },
      nullptr);
  MetricsScrape traced_after = Scrape(*state->server);
  TraceStats stats = Analyze(tracer, {state->run_trace});
  FillSpanLayers(stats, traced, report);
  FillCreateLayers(stats, 0, report);

  // The fall-through operators, timed by direct single-threaded calls.
  auto dashboard = state->server->GetDashboard("desk");
  Samples adhoc_ms;
  while (dashboard.ok() && adhoc_ms.size() < kAdhocSamples) {
    Query query = NextQuery(state.get());
    if (query.kind != Query::kOps) continue;
    Clock::time_point start = Clock::now();
    auto result = Reference(*dashboard, query);
    adhoc_ms.Add(MsSince(start));
    outcomes->Expect(result.ok(), "ad-hoc reference " + query.Url());
  }
  report->layers["ops.adhoc.ms"] = {adhoc_ms.Mean(), "ms"};
  report->layers["trace.overhead_pct"] = {
      (traced_ms.Median() / service_ms.Median() - 1.0) * 100.0, "%"};
  TraceNotes(stats, traced_after, outcomes, report);
  return true;
}

}  // namespace perfbench
