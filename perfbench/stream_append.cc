// stream_append: writes beside reads on the IPL dashboard with the
// durable store on (fsync_policy = always). One closed-loop writer
// appends 16-tweet batches (from a second datagen seed, so every batch
// brings new strings) to objects/ipl_tweets; one open-loop reader mixes
// tweet_facts groupbys (each append invalidates their cache entries),
// conditional object GETs and changes?since= polls. After the write
// phase every object must equal a cold run over base ++ appended rows,
// and restart recovery is timed over byte-identical copies of the
// post-write durability directory.

#include <cctype>
#include <filesystem>
#include <memory>
#include <thread>

#include "datagen/datagen.h"
#include "flows.h"
#include "io/connector.h"
#include "layers.h"
#include "share/result_cache.h"
#include "share/shared_registry.h"
#include "table/append.h"
#include "workloads.h"

namespace perfbench {
namespace {

using shareinsights::Dashboard;
using shareinsights::SharedDataRegistry;
using shareinsights::Status;
using shareinsights::TablePtr;

constexpr int kBaseTweets = 20000;
constexpr int kBatchTweets = 16;
constexpr int kBatches = 800;  // generated batches; the writer cycles them
constexpr double kReaderRate = 40;  // reads/s
constexpr int kReaderSenders = 2;
constexpr int kRecoverySamples = 3;
constexpr int kConcatSamples = 10;
constexpr const char* kAppendUrl =
    "/api/v1/dashboards/ipl/objects/ipl_tweets:append";
constexpr const char* kObjectsUrl = "/api/v1/dashboards/ipl/objects";

std::string PercentEncode(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

struct StreamState {
  std::string dir;
  std::string text;
  std::string base_json;
  std::vector<std::string> batch_bodies;  // {"rows": [...]} per batch
  std::vector<std::string> batch_lines;   // the same tweets, Gnip-shaped
  ApiServer::Options server_options;
  std::unique_ptr<SharedDataRegistry> registry;
  std::unique_ptr<ApiServer> server;
  std::vector<std::string> groupby_urls;
  std::string run_trace;  // Chrome trace of the set-up run

  // Writer state (one writer at a time).
  size_t next_batch = 0;
  size_t acknowledged = 0;  // batches answered 202, in order
  uint64_t ingested_bytes = 0;
  double flows_delta = 0, flows_full = 0;

  // Reader state.
  std::mutex mu;
  std::map<std::string, std::string> etags;
  uint64_t cursor = 0;
  std::atomic<int64_t> cache_hits{0}, cache_misses{0};
};

bool Append(StreamState* state, Client* client, Outcomes* outcomes,
            double* ms) {
  size_t batch = state->next_batch++ % kBatches;
  HttpResponse response =
      client->Post("append", kAppendUrl, state->batch_bodies[batch], ms);
  if (!outcomes->Check(response, {202}, "append")) return false;
  ++state->acknowledged;
  state->ingested_bytes += state->batch_bodies[batch].size();
  auto body = shareinsights::ParseJson(response.body);
  if (body.ok()) {
    const JsonValue* delta = body->Find("flows_delta");
    const JsonValue* full = body->Find("flows_full_fallback");
    if (delta != nullptr) state->flows_delta += delta->number_value();
    if (full != nullptr) state->flows_full += full->number_value();
  }
  return true;
}

void Read(StreamState* state, Client* client, Outcomes* outcomes, int64_t i,
          double* ms) {
  static const char* const kObjects[] = {"team_tweets", "tagcloud_tweets",
                                         "tweet_facts"};
  uint64_t w = Mix(0x4ead, static_cast<uint64_t>(i));
  switch (w % 4) {
    case 0:
    case 1: {
      const std::string& url =
          state->groupby_urls[(w >> 4) % state->groupby_urls.size()];
      HttpResponse response = client->Get("groupby", url, ms);
      if (!outcomes->Check(response, {200}, url)) return;
      size_t at = response.body.find("\"cache\"");
      if (at == std::string::npos) {
        outcomes->Expect(false, "groupby fell through: " + url);
      } else if (response.body.compare(response.body.find('"', at + 7), 5,
                                       "\"hit\"") == 0) {
        ++state->cache_hits;
      } else {
        ++state->cache_misses;
      }
      return;
    }
    case 2: {
      std::string object = kObjects[(w >> 8) % 3];
      HttpRequest request =
          HttpRequest::Get(std::string(kObjectsUrl) + "/" + object);
      {
        std::lock_guard<std::mutex> lock(state->mu);
        auto it = state->etags.find(object);
        if (it != state->etags.end()) {
          request.headers["If-None-Match"] = it->second;
        }
      }
      HttpResponse response = client->Send("object_get", request, ms);
      if (!outcomes->Check(response, {200, 304}, "GET " + object)) return;
      auto etag = response.headers.find("ETag");
      if (etag != response.headers.end()) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->etags[object] = etag->second;
      }
      return;
    }
    default: {
      uint64_t since;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        since = state->cursor;
      }
      HttpResponse response = client->Get(
          "changes",
          std::string(kObjectsUrl) +
              "/ipl_tweets/changes?since=" + std::to_string(since),
          ms);
      if (!outcomes->Check(response, {200}, "changes")) return;
      auto body = shareinsights::ParseJson(response.body);
      const JsonValue* version = body.ok() ? body->Find("version") : nullptr;
      if (!outcomes->Expect(version != nullptr, "changes version")) return;
      std::lock_guard<std::mutex> lock(state->mu);
      state->cursor = std::max<uint64_t>(
          state->cursor, static_cast<uint64_t>(version->number_value()));
    }
  }
}

std::unique_ptr<StreamState> Setup(const RunOptions& options, int index,
                                   Tracer* tracer, Outcomes* outcomes) {
  auto state = std::make_unique<StreamState>();
  state->dir = options.work_dir + "/stream-" + std::to_string(index);
  ResetDir(state->dir);
  shareinsights::IplDataOptions base_options;
  base_options.num_tweets = kBaseTweets;
  base_options.seed = options.seed;
  shareinsights::IplDataset base =
      shareinsights::GenerateIplTweets(base_options);
  if (!outcomes->Expect(base.WriteTo(state->dir).ok(), "write IPL files")) {
    return nullptr;
  }
  state->base_json = base.tweets_json;
  state->ingested_bytes = base.tweets_json.size();

  // Appended tweets come from a second seed, reshaped to the object's
  // schema (postedTime, body, displayName).
  shareinsights::IplDataOptions batch_options;
  batch_options.num_tweets = kBatchTweets * kBatches;
  batch_options.seed = options.seed * 7919 + 17;
  auto records = shareinsights::ParseJsonRecords(
      shareinsights::GenerateIplTweets(batch_options).tweets_json);
  if (!outcomes->Expect(records.ok(), "parse appended tweets")) return nullptr;
  for (size_t b = 0; b < kBatches; ++b) {
    JsonValue rows = JsonValue::MakeArray();
    std::string lines;
    for (size_t t = b * kBatchTweets; t < (b + 1) * kBatchTweets; ++t) {
      const JsonValue& tweet = (*records)[t];
      JsonValue row = JsonValue::MakeObject();
      row.Set("postedTime", *tweet.Find("created_at"));
      row.Set("body", *tweet.Find("text"));
      row.Set("displayName", *tweet.ResolvePath("user.location"));
      rows.Append(std::move(row));
      lines += tweet.Serialize() + "\n";
    }
    JsonValue body = JsonValue::MakeObject();
    body.Set("rows", std::move(rows));
    state->batch_bodies.push_back(body.Serialize());
    state->batch_lines.push_back(std::move(lines));
  }

  std::string url =
      "https://api.gnip.sim/perfbench/stream-" + std::to_string(index);
  shareinsights::SimulatedRemoteStore::Get().Publish(url, base.tweets_json);
  state->text = Fill(kIplFlow, {{"__URL__", url}, {"__DIR__", state->dir}});
  state->server_options.durability.dir = state->dir + "/store";
  state->server_options.durability.fsync_policy =
      shareinsights::DurabilityOptions::FsyncPolicy::kAlways;
  state->registry = std::make_unique<SharedDataRegistry>();
  state->server = std::make_unique<ApiServer>(state->registry.get(),
                                              state->server_options);
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
  HttpResponse run = client.Post("run", "/api/v1/dashboards/ipl/run", "");
  if (!outcomes->Check(run, {200}, "ipl run")) return nullptr;
  auto envelope = shareinsights::ParseJson(run.body);
  if (envelope.ok()) {
    state->run_trace = FetchRunTrace(state->server.get(), *envelope);
  }

  // Reader groupbys: one per team seen in tweet_facts.
  auto dashboard = state->server->GetDashboard("ipl");
  auto facts = dashboard.ok() ? (*dashboard)->EndpointData("tweet_facts")
                              : shareinsights::Result<TablePtr>(
                                    dashboard.status());
  if (!outcomes->Expect(facts.ok(), "tweet_facts")) return nullptr;
  std::set<std::string> teams;
  std::optional<size_t> team_col = (*facts)->schema().IndexOf("team");
  for (size_t r = 0; team_col && r < (*facts)->num_rows(); ++r) {
    const shareinsights::Value& team = (*facts)->at(r, *team_col);
    if (team.is_string()) teams.insert(team.ToString());
  }
  for (const std::string& team : teams) {
    state->groupby_urls.push_back(
        "/api/v1/ipl/ds/tweet_facts/filter/team/eq/" + PercentEncode(team) +
        "/groupby/state/count/date");
  }
  if (!outcomes->Expect(!state->groupby_urls.empty(), "teams in tweet_facts")) {
    return nullptr;
  }
  Client warm(state->server.get(), nullptr);
  for (int i = 0; i < 2; ++i) Append(state.get(), &warm, outcomes, nullptr);
  for (int i = 0; i < 8; ++i) Read(state.get(), &warm, outcomes, i, nullptr);
  return state;
}

// One writer and one open-loop reader side by side.
void WritePhase(StreamState* state, double seconds, Outcomes* outcomes,
                Samples* append_ms, Completions* appends, Samples* read_ms,
                Samples* lateness_ms) {
  Client client(state->server.get(), nullptr);
  std::thread writer([&] {
    ClosedLoop(
        1, seconds,
        [&](int, int64_t) {
          double ms = 0;
          if (Append(state, &client, outcomes, &ms)) append_ms->Add(ms);
        },
        appends);
  });
  OpenLoop(
      kReaderRate, seconds, kReaderSenders,
      [&](int64_t i) { Read(state, &client, outcomes, i, nullptr); }, read_ms,
      lateness_ms);
  writer.join();
}

// One client alternating one append with two reads (the traced shape).
void SequentialPass(StreamState* state, Client* client, double seconds,
                    Outcomes* outcomes, Samples* append_ms) {
  ClosedLoop(
      1, seconds,
      [&](int, int64_t i) {
        double ms = 0;
        if (Append(state, client, outcomes, &ms)) append_ms->Add(ms);
        Read(state, client, outcomes, 2 * i, nullptr);
        Read(state, client, outcomes, 2 * i + 1, nullptr);
      },
      nullptr);
}

std::string ObjectRows(ApiServer* server, const std::string& object) {
  HttpResponse response =
      server->Get(std::string(kObjectsUrl) + "/" + object + "?limit=0");
  return response.status == 200 ? response.body.substr(
                                      response.body.find("\"rows\""))
                                : "HTTP " + std::to_string(response.status);
}

std::vector<std::string> ObjectNames(const std::string& listing) {
  std::vector<std::string> names;
  auto body = shareinsights::ParseJson(listing);
  const JsonValue* objects = body.ok() ? body->Find("objects") : nullptr;
  if (objects == nullptr) return names;
  for (const JsonValue& item : objects->array_items()) {
    names.push_back(item.Find("name")->string_value());
  }
  return names;
}

// Every object must be byte-identical to a cold run over base ++ the
// acknowledged batches (rows compared; versions are process-local).
void CheckAgainstColdRun(StreamState* state, const std::string& listing,
                         Outcomes* outcomes) {
  std::string tweets = state->base_json;
  for (size_t b = 0; b < state->acknowledged; ++b) {
    tweets += state->batch_lines[b % kBatches];
  }
  std::string url = "https://api.gnip.sim/perfbench/stream-oracle";
  shareinsights::SimulatedRemoteStore::Get().Publish(url, tweets);
  ApiServer oracle;
  Status created = oracle.CreateDashboard(
      "ipl", Fill(kIplFlow, {{"__URL__", url}, {"__DIR__", state->dir}}),
      Dashboard::Options());
  if (!outcomes->Expect(created.ok(), "oracle create")) return;
  if (!outcomes->Check(oracle.Post("/api/v1/dashboards/ipl/run", ""), {200},
                       "oracle run")) {
    return;
  }
  std::vector<std::string> names = ObjectNames(listing);
  outcomes->Expect(!names.empty(), "object listing");
  for (const std::string& name : names) {
    outcomes->Expect(
        ObjectRows(state->server.get(), name) == ObjectRows(&oracle, name),
        "object " + name + " differs from a cold run over base ++ appends");
  }
}

}  // namespace

bool RunStreamAppend(const RunOptions& options, Outcomes* outcomes,
                     Report* report) {
  ApiServer probe;  // scrapes /api/v1/metrics between servers
  Samples setup_s;
  std::unique_ptr<StreamState> state;
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

  Samples sequential_ms;
  if (options.trace) {
    Client client(state->server.get(), nullptr);
    SequentialPass(state.get(), &client, options.seconds / 3, outcomes,
                   &sequential_ms);
  }
  double seconds = options.trace ? options.seconds / 3 : options.seconds;
  MetricsScrape before = Scrape(probe);
  size_t appends0 = state->acknowledged;
  int64_t hits0 = state->cache_hits, misses0 = state->cache_misses;
  Samples append_ms, read_ms, lateness_ms;
  Completions completions;
  WritePhase(state.get(), seconds, outcomes, &append_ms, &completions,
             &read_ms, &lateness_ms);
  MetricsScrape after = Scrape(probe);
  double appends = static_cast<double>(state->acknowledged - appends0);

  // Outputs after the write phase, then restart recovery.
  std::string listing = state->server->Get(kObjectsUrl).body;
  CheckAgainstColdRun(state.get(), listing, outcomes);
  state->server.reset();
  state->registry.reset();
  std::string store = state->server_options.durability.dir;
  std::string pristine = state->dir + "/pristine";
  double durable_bytes = static_cast<double>(DirBytes(store));
  std::filesystem::copy(store, pristine,
                        std::filesystem::copy_options::recursive);
  Samples recovery_ms;
  MetricsScrape before_recovery = Scrape(probe);
  for (int k = 0; k < kRecoverySamples; ++k) {
    std::filesystem::remove_all(store);
    std::filesystem::copy(pristine, store,
                          std::filesystem::copy_options::recursive);
    Clock::time_point start = Clock::now();
    SharedDataRegistry registry;
    ApiServer recovered(&registry, state->server_options);
    HttpResponse first = recovered.Get(state->groupby_urls.front());
    recovery_ms.Add(MsSince(start));
    outcomes->Check(first, {200}, "first query after recovery");
    outcomes->Expect(recovered.durability() != nullptr &&
                         !recovered.durability()->read_only(),
                     "recovered store is writable");
    outcomes->Expect(recovered.Get(kObjectsUrl).body == listing,
                     "recovered versions and rows equal the pre-restart ones");
  }
  MetricsScrape after_recovery = Scrape(probe);

  double hits = static_cast<double>(state->cache_hits - hits0);
  double misses = static_cast<double>(state->cache_misses - misses0);
  double durable_ratio = durable_bytes / state->ingested_bytes;
  report->e2e["setup_s"] = {setup_s.Median(), "s"};
  report->e2e["latency_ms.p50"] = {append_ms.Median(), "ms"};
  report->e2e["throughput_per_s"] = {completions.MedianRate(), "1/s"};
  report->e2e["read_ms.p50"] = {read_ms.ChunkedQuantile(0.5), "ms"};
  Extra(report, "base_tweets", kBaseTweets, "count");
  Extra(report, "appends", appends, "count");
  Extra(report, "append_ms.p50", append_ms.Median(), "ms");
  Extra(report, "append_ms.p90", append_ms.Quantile(0.9), "ms");
  Extra(report, "query_ms.p50", read_ms.Median(), "ms");
  Extra(report, "query_ms.p99", read_ms.Quantile(0.99), "ms");
  Extra(report, "reader_rate", kReaderRate, "1/s");
  Extra(report, "generator_lateness_ms.p99", lateness_ms.Quantile(0.99),
        "ms");
  Extra(report, "recovery_ms.p50", recovery_ms.Median(), "ms");
  Extra(report, "durable_bytes_per_input_byte", durable_ratio, "ratio");
  report->notes.push_back("fsync_policy always; simd_isa " +
                          SelectedIsa(after));
  if (!options.trace) return true;

  auto set = [&](const std::string& name, double v, const char* unit) {
    report->layers[name] = Metric{v, unit};
  };
  set("exec.flows_delta_ratio",
      Ratio(state->flows_delta, state->flows_delta + state->flows_full),
      "ratio");
  set("share.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  set("share.scan_dedup_ratio",
      Ratio(Delta(before, after, "shared_scan_dedup_total"),
            Delta(before, after, "shared_scan_batch_size_sum")),
      "ratio");
  set("share.cache_bytes", Get(after, "cache_bytes"), "bytes");
  set("store.wal_bytes_per_append",
      Ratio(Delta(before, after, "wal_bytes_written_total"), appends),
      "bytes");
  set("store.fsyncs_per_append",
      Ratio(Delta(before, after, "wal_fsyncs_total"), appends), "count");
  set("store.snapshots", Delta(before, after, "snapshots_written_total"),
      "count");
  set("store.replayed_records",
      Delta(before_recovery, after_recovery,
            "recovery_replayed_records_total") /
          kRecoverySamples,
      "count");

  // Traced sequential pass on a fresh durable set-up.
  state.reset();
  shareinsights::ResultCache::Process().Clear();
  Tracer tracer;
  state = Setup(options, kSetupRepeats, &tracer, outcomes);
  if (state == nullptr) return false;
  Client traced(state->server.get(), &tracer);
  Samples traced_ms;
  SequentialPass(state.get(), &traced, options.seconds / 3, outcomes,
                 &traced_ms);
  MetricsScrape traced_after = Scrape(probe);
  TraceStats stats = Analyze(tracer, {state->run_trace});
  FillSpanLayers(stats, traced, report);
  FillCreateLayers(stats, 0, report);
  int traced_appends = stats.Requests("append");
  double dashboard_append = stats.SpanMs("dashboard.append", true);
  set("dashboard.append_ms", Ratio(dashboard_append, traced_appends), "ms");
  set("server.append_outside_dashboard_ms",
      Ratio(stats.RequestMs("append") - dashboard_append, traced_appends),
      "ms");
  set("exec.append_self_ms",
      Ratio(stats.SpanSelfMs("exec.append"), traced_appends), "ms");

  // Table layer, timed by direct calls on the grown object.
  auto dashboard = state->server->GetDashboard("ipl");
  auto base = dashboard.ok() ? (*dashboard)->store().Get("ipl_tweets")
                             : shareinsights::Result<TablePtr>(
                                   dashboard.status());
  if (outcomes->Expect(base.ok(), "ipl_tweets object")) {
    auto body = shareinsights::ParseJson(state->batch_bodies.front());
    std::vector<std::vector<shareinsights::Value>> rows;
    for (const JsonValue& row : body->Find("rows")->array_items()) {
      rows.push_back({row.Find("postedTime")->ToTableValue(),
                      row.Find("body")->ToTableValue(),
                      row.Find("displayName")->ToTableValue()});
    }
    Samples concat_ms;
    for (int k = 0; k < kConcatSamples; ++k) {
      Clock::time_point start = Clock::now();
      auto batch = shareinsights::MakeAppendBatch(**base, rows);
      bool ok = batch.ok() && shareinsights::ConcatTables(*base, *batch).ok();
      concat_ms.Add(MsSince(start));
      outcomes->Expect(ok, "MakeAppendBatch + ConcatTables");
    }
    set("table.concat_ms", concat_ms.Median(), "ms");
    double entries = 0;
    for (size_t c = 0; c < (*base)->num_columns(); ++c) {
      const auto& column = (*base)->typed_column(c);
      if (column.encoding() == shareinsights::ColumnEncoding::kDict) {
        entries += static_cast<double>(column.dict().size());
      }
    }
    set("table.dict_entries", entries, "count");
  }
  set("trace.overhead_pct",
      (traced_ms.Median() / sequential_ms.Median() - 1.0) * 100.0, "%");
  TraceNotes(stats, traced_after, outcomes, report);
  return true;
}

}  // namespace perfbench
