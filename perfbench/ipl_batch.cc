// ipl_batch: back-to-back cold POST .../run of the Appendix A.1 IPL
// processing flow over ~20k generated tweets fetched through the
// simulated https connector. One closed-loop client; every run reloads
// its sources, so each envelope must report a cache miss, and every
// run's endpoints must match the first run's fingerprints.

#include <memory>

#include "common/fingerprint.h"
#include "datagen/datagen.h"
#include "flow/flow_file.h"
#include "flows.h"
#include "io/connector.h"
#include "layers.h"
#include "share/result_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

using shareinsights::Dashboard;
using shareinsights::Status;

constexpr int kTweets = 20000;
constexpr const char* kRunUrl = "/api/v1/dashboards/ipl/run";
const char* const kEndpoints[] = {"player_tweets",   "team_tweets",
                                  "team_region_tweets", "tagcloud_tweets",
                                  "tweet_facts",     "long_words"};

struct IplState {
  std::string text;
  std::unique_ptr<ApiServer> server;
  std::map<std::string, uint64_t> fingerprints;  // endpoint -> digest
};

uint64_t TableDigest(const shareinsights::Table& table) {
  shareinsights::Fingerprinter fp;
  fp.Add(static_cast<uint64_t>(table.num_rows()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    for (size_t r = 0; r < table.num_rows(); ++r) fp.Add(table.at(r, c));
  }
  return fp.Digest();
}

// Data generation, the server, and the dashboard created through the
// public ApiServer::CreateDashboard (inside a traced "create" request
// when `client` traces).
std::unique_ptr<IplState> Setup(const RunOptions& options, int index,
                                Tracer* tracer, Outcomes* outcomes) {
  auto state = std::make_unique<IplState>();
  std::string dir = options.work_dir + "/ipl-" + std::to_string(index);
  ResetDir(dir);
  shareinsights::IplDataOptions data_options;
  data_options.num_tweets = kTweets;
  data_options.seed = options.seed;
  shareinsights::IplDataset data =
      shareinsights::GenerateIplTweets(data_options);
  if (!outcomes->Expect(data.WriteTo(dir).ok(), "write IPL files")) {
    return nullptr;
  }
  std::string url = "https://api.gnip.sim/perfbench/ipl-batch";
  shareinsights::SimulatedRemoteStore::Get().Publish(url, data.tweets_json);
  state->text = Fill(kIplFlow, {{"__URL__", url}, {"__DIR__", dir}});
  state->server = std::make_unique<ApiServer>();
  Client client(state->server.get(), tracer);
  Status created = client.Wrap(
      "create",
      [&] {
        Dashboard::Options dash_options;
        dash_options.tracer = tracer;
        return state->server->CreateDashboard("ipl", state->text,
                                              dash_options);
      },
      nullptr);
  if (!outcomes->Expect(created.ok(), "create ipl: " + created.ToString())) {
    return nullptr;
  }
  return state;
}

// One cold run, its output checks, and one browse per endpoint.
void RunOnce(IplState* state, Client* client, Outcomes* outcomes,
             Samples* run_ms, Samples* browse_ms,
             std::vector<std::string>* run_traces) {
  double ms = 0;
  HttpResponse run = client->Post("run", kRunUrl, "", &ms);
  if (!outcomes->Check(run, {200}, "ipl run")) return;
  run_ms->Add(ms);
  auto envelope = shareinsights::ParseJson(run.body);
  const JsonValue* cache = envelope.ok() ? envelope->Find("cache") : nullptr;
  outcomes->Expect(cache != nullptr && cache->string_value() == "miss",
                   "cold ipl run did not report cache miss");
  if (run_traces != nullptr && envelope.ok()) {
    run_traces->push_back(FetchRunTrace(state->server.get(), *envelope));
  }
  auto dashboard = state->server->GetDashboard("ipl");
  for (const char* endpoint : kEndpoints) {
    shareinsights::Result<shareinsights::TablePtr> data =
        dashboard.ok() ? (*dashboard)->EndpointData(endpoint)
                       : shareinsights::Result<shareinsights::TablePtr>(
                             dashboard.status());
    if (!outcomes->Expect(data.ok(), std::string("endpoint ") + endpoint)) {
      continue;
    }
    uint64_t digest = TableDigest(**data);
    auto [it, inserted] = state->fingerprints.emplace(endpoint, digest);
    outcomes->Expect(inserted || it->second == digest,
                     std::string(endpoint) + " differs from the first run");
    double read = 0;
    HttpResponse page = client->Get(
        "browse", std::string("/api/v1/ipl/ds/") + endpoint + "?limit=50",
        &read);
    if (outcomes->Check(page, {200}, std::string("browse ") + endpoint)) {
      browse_ms->Add(read);
    }
  }
}

}  // namespace

bool RunIplBatch(const RunOptions& options, Outcomes* outcomes,
                 Report* report) {
  Samples setup_s, warm_ms, warm_browse;
  std::unique_ptr<IplState> state;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    state.reset();
    shareinsights::ResultCache::Process().Clear();
    Clock::time_point start = Clock::now();
    state = Setup(options, r, nullptr, outcomes);
    if (state == nullptr) return false;
    Client warm(state->server.get(), nullptr);
    RunOnce(state.get(), &warm, outcomes, &warm_ms, &warm_browse, nullptr);
    setup_s.Add(MsSince(start) / 1000.0);
    // Memory after the first set-up and its warm-up: a fixed amount of
    // work, so the figure does not grow with the operations a faster
    // build fits into the timed phase.
    if (r == 0) report->e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  if (outcomes->failed() > 0) return false;

  double seconds = options.trace ? options.seconds / 2 : options.seconds;
  Samples run_ms, browse_ms;
  Client client(state->server.get(), nullptr);
  int64_t runs = ClosedLoop(
      1, seconds,
      [&](int, int64_t) {
        RunOnce(state.get(), &client, outcomes, &run_ms, &browse_ms, nullptr);
      },
      nullptr);
  double rows_per_s = kTweets / (run_ms.Median() / 1000.0);
  report->e2e["setup_s"] = {setup_s.Median(), "s"};
  report->e2e["latency_ms.p50"] = {run_ms.Median(), "ms"};
  report->e2e["throughput_per_s"] = {rows_per_s, "1/s"};
  report->e2e["read_ms.p50"] = {browse_ms.Median(), "ms"};
  Extra(report, "runs", static_cast<double>(runs), "count");
  Extra(report, "input_tweets", kTweets, "count");
  Extra(report, "run_ms.p50", run_ms.Median(), "ms");
  Extra(report, "run_ms.p90", run_ms.Quantile(0.9), "ms");
  Extra(report, "batch_rows_per_s", rows_per_s, "1/s");
  Extra(report, "browse_ms.p50", browse_ms.Median(), "ms");
  if (!options.trace) return true;

  state.reset();
  shareinsights::ResultCache::Process().Clear();
  Tracer tracer;
  state = Setup(options, 1, &tracer, outcomes);
  if (state == nullptr) return false;
  Client traced(state->server.get(), &tracer);
  std::vector<std::string> run_traces;
  Samples traced_ms, traced_browse, parse_ms;
  ClosedLoop(
      1, options.seconds / 2,
      [&](int, int64_t) {
        Clock::time_point parse_start = Clock::now();
        auto parsed = shareinsights::ParseFlowFile(state->text, "ipl");
        parse_ms.Add(MsSince(parse_start));
        outcomes->Expect(parsed.ok(), "flow parse");
        RunOnce(state.get(), &traced, outcomes, &traced_ms, &traced_browse,
                &run_traces);
      },
      nullptr);
  MetricsScrape after = Scrape(*state->server);
  TraceStats stats = Analyze(tracer, run_traces);
  FillSpanLayers(stats, traced, report);
  FillCreateLayers(stats, parse_ms.Mean(), report);
  report->layers["share.cache_bytes"] = {Get(after, "cache_bytes"), "bytes"};
  report->layers["trace.overhead_pct"] = {
      (traced_ms.Median() / run_ms.Median() - 1.0) * 100.0, "%"};
  TraceNotes(stats, after, outcomes, report);
  return true;
}

}  // namespace perfbench
