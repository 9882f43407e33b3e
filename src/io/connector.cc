#include "io/connector.h"

#include <chrono>
#include <thread>

#include "common/fault.h"
#include "common/string_util.h"
#include "gov/memory_budget.h"
#include "io/circuit_breaker.h"
#include "io/csv.h"
#include "io/json.h"
#include "obs/metrics.h"

namespace shareinsights {

// ---------------------------------------------------------------------
// SimulatedRemoteStore
// ---------------------------------------------------------------------

SimulatedRemoteStore& SimulatedRemoteStore::Get() {
  static SimulatedRemoteStore* store = new SimulatedRemoteStore;
  return *store;
}

void SimulatedRemoteStore::Publish(const std::string& url,
                                   std::string payload) {
  std::lock_guard<std::mutex> lock(mu_);
  payloads_[url] = std::move(payload);
}

void SimulatedRemoteStore::SetResponder(
    std::function<Result<std::string>(const std::string&,
                                      const DataSourceParams&)>
        responder) {
  std::lock_guard<std::mutex> lock(mu_);
  responder_ = std::move(responder);
}

void SimulatedRemoteStore::SetFlaky(FlakyMode flaky) {
  std::lock_guard<std::mutex> lock(mu_);
  flaky_ = std::move(flaky);
  flaky_rng_ = Rng(flaky_.seed);
  fetches_ = 0;
  failures_ = 0;
}

void SimulatedRemoteStore::ClearFlaky() { SetFlaky(FlakyMode{}); }

Result<std::string> SimulatedRemoteStore::Fetch(
    const std::string& url, const DataSourceParams& params) const {
  int latency_ms = 0;
  std::optional<Status> flaky_failure;
  std::optional<std::string> payload;
  std::function<Result<std::string>(const std::string&,
                                    const DataSourceParams&)>
      responder;
  {
    std::lock_guard<std::mutex> lock(mu_);
    latency_ms = flaky_.latency_ms;
    int64_t fetch_index = fetches_++;
    // Always advance the Rng so the failure pattern is a pure function
    // of (seed, fetch index).
    bool draw = flaky_rng_.NextDouble() < flaky_.fail_probability;
    bool fail = fetch_index < flaky_.fail_first || draw;
    if (fail) {
      ++failures_;
      flaky_failure = flaky_.status.WithContext("fetching '" + url + "'");
    } else {
      auto it = payloads_.find(url);
      if (it != payloads_.end()) {
        payload = it->second;
      } else {
        responder = responder_;  // copied; invoked outside the lock
        if (!responder) ++failures_;
      }
    }
  }
  if (latency_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(latency_ms));
  }
  if (flaky_failure.has_value()) return *flaky_failure;
  if (payload.has_value()) return *std::move(payload);
  if (responder) return responder(url, params);
  return Status::NotFound("no payload published for URL '" + url + "'");
}

void SimulatedRemoteStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  payloads_.clear();
  responder_ = nullptr;
  flaky_ = FlakyMode{};
  flaky_rng_ = Rng(0);
  fetches_ = 0;
  failures_ = 0;
}

int64_t SimulatedRemoteStore::fetches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fetches_;
}

int64_t SimulatedRemoteStore::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

// ---------------------------------------------------------------------
// Built-in connectors
// ---------------------------------------------------------------------

namespace {

/// Local (or mounted remote) file system, the `file` protocol. `base_dir`
/// in the params — set by the dashboard runtime to the dashboard's data
/// folder — anchors relative paths (section 4.3.2 of the paper).
class FileConnector : public Connector {
 public:
  std::string protocol() const override { return "file"; }
  Result<std::string> Fetch(const DataSourceParams& params) override {
    std::string source = params.Get("source");
    if (source.empty()) {
      return Status::InvalidArgument("file connector requires 'source'");
    }
    std::string base = params.Get("base_dir");
    std::string path = source;
    if (!base.empty() && !StartsWith(source, "/")) {
      path = base + "/" + source;
    }
    return ReadFileToString(path);
  }
};

/// Simulated network protocols: http/https/ftp resolve against the
/// SimulatedRemoteStore so the exact same D-section configurations from
/// the paper (figure 6) run without a network.
class RemoteConnector : public Connector {
 public:
  explicit RemoteConnector(std::string protocol)
      : protocol_(std::move(protocol)) {}
  std::string protocol() const override { return protocol_; }
  Result<std::string> Fetch(const DataSourceParams& params) override {
    std::string source = params.Get("source");
    if (source.empty()) {
      return Status::InvalidArgument(protocol_ + " connector requires 'source'");
    }
    return SimulatedRemoteStore::Get().Fetch(source, params);
  }

 private:
  std::string protocol_;
};

/// Simulated JDBC: `source` is the connection string, `query` the ad-hoc
/// SQL; both concatenate into the remote-store key so tests can stage
/// distinct result sets per query.
class JdbcConnector : public Connector {
 public:
  std::string protocol() const override { return "jdbc"; }
  Result<std::string> Fetch(const DataSourceParams& params) override {
    std::string source = params.Get("source");
    if (source.empty()) {
      return Status::InvalidArgument("jdbc connector requires 'source'");
    }
    std::string key = source;
    if (params.Has("query")) key += "?query=" + params.Get("query");
    return SimulatedRemoteStore::Get().Fetch(key, params);
  }
};

/// Inline payloads: `data:` carries the payload directly in the flow
/// file. Handy for tests and tiny reference tables.
class InlineConnector : public Connector {
 public:
  std::string protocol() const override { return "inline"; }
  Result<std::string> Fetch(const DataSourceParams& params) override {
    if (!params.Has("data")) {
      return Status::InvalidArgument("inline connector requires 'data'");
    }
    return params.Get("data");
  }
};

// ---------------------------------------------------------------------
// Built-in formats
// ---------------------------------------------------------------------

class CsvFormat : public Format {
 public:
  explicit CsvFormat(std::string name, char separator)
      : name_(std::move(name)), separator_(separator) {}
  std::string name() const override { return name_; }
  Result<TablePtr> Parse(const std::string& payload,
                         const DataSourceParams& params,
                         const std::optional<Schema>& declared,
                         const std::vector<ColumnMapping>& mappings,
                         ParseReport* report) override {
    (void)mappings;  // CSV columns bind by name/position, not by path.
    CsvOptions options;
    options.separator = separator_;
    std::string sep = params.Get("separator");
    if (!sep.empty()) options.separator = sep[0];
    options.has_header = params.Get("header", "true") != "false";
    SI_ASSIGN_OR_RETURN(options.error_policy,
                        ParseErrorPolicyFromString(params.Get("error_policy")));
    return ReadCsvString(payload, options, declared, report);
  }

 private:
  std::string name_;
  char separator_;
};

class JsonFormat : public Format {
 public:
  std::string name() const override { return "json"; }
  Result<TablePtr> Parse(const std::string& payload,
                         const DataSourceParams& params,
                         const std::optional<Schema>& declared,
                         const std::vector<ColumnMapping>& mappings,
                         ParseReport* report) override {
    // An optional `records_path` selects the array of records inside a
    // wrapper document (e.g. stackexchange's {"items": [...]}).
    std::string records_path = params.Get("records_path");
    std::vector<JsonValue> records;
    if (!records_path.empty()) {
      SI_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(payload));
      const JsonValue* array = doc.ResolvePath(records_path);
      if (array == nullptr || !array->is_array()) {
        return Status::ParseError("records_path '" + records_path +
                                  "' does not resolve to an array");
      }
      records = array->array_items();
    } else {
      SI_ASSIGN_OR_RETURN(records, ParseJsonRecords(payload));
    }

    // Columns come from mappings when present, else from the declared
    // schema (paths defaulting to the column names).
    std::vector<ColumnMapping> effective = mappings;
    if (effective.empty()) {
      if (!declared.has_value()) {
        return Status::InvalidArgument(
            "json format requires a declared schema or => mappings");
      }
      for (const std::string& name : declared->names()) {
        effective.push_back(ColumnMapping{name, name});
      }
    }
    SI_ASSIGN_OR_RETURN(ParseErrorPolicy policy,
                        ParseErrorPolicyFromString(params.Get("error_policy")));
    std::vector<std::string> names;
    names.reserve(effective.size());
    for (const auto& m : effective) names.push_back(m.column);
    TableBuilder builder(Schema::FromNames(names));
    builder.Reserve(records.size());
    auto reject = [&](size_t index, const JsonValue& record,
                      const std::string& reason) {
      if (report == nullptr) return;
      ++report->rows_skipped;
      if (policy == ParseErrorPolicy::kQuarantine) {
        report->quarantined.push_back(QuarantinedRow{
            static_cast<int64_t>(index), reason, record.Serialize()});
      }
    };
    for (size_t i = 0; i < records.size(); ++i) {
      const JsonValue& record = records[i];
      if (policy != ParseErrorPolicy::kFail && !record.is_object()) {
        reject(i, record, "record is not a JSON object");
        continue;
      }
      std::vector<Value> row;
      row.reserve(effective.size());
      for (const auto& m : effective) {
        const std::string& path = m.path.empty() ? m.column : m.path;
        const JsonValue* node = record.ResolvePath(path);
        row.push_back(node == nullptr ? Value::Null() : node->ToTableValue());
      }
      Status appended = builder.AppendRow(std::move(row));
      if (!appended.ok()) {
        if (policy == ParseErrorPolicy::kFail) return appended;
        reject(i, record, appended.message());
      }
    }
    return builder.Finish();
  }
};

}  // namespace

// ---------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------

ConnectorRegistry::ConnectorRegistry() {
  connectors_["file"] = std::make_shared<FileConnector>();
  connectors_["http"] = std::make_shared<RemoteConnector>("http");
  connectors_["https"] = std::make_shared<RemoteConnector>("https");
  connectors_["ftp"] = std::make_shared<RemoteConnector>("ftp");
  connectors_["jdbc"] = std::make_shared<JdbcConnector>();
  connectors_["inline"] = std::make_shared<InlineConnector>();
}

ConnectorRegistry& ConnectorRegistry::Default() {
  static ConnectorRegistry* registry = new ConnectorRegistry;
  return *registry;
}

Status ConnectorRegistry::Register(std::shared_ptr<Connector> connector) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string protocol = connector->protocol();
  if (connectors_.count(protocol) > 0) {
    return Status::AlreadyExists("connector for protocol '" + protocol +
                                 "' already registered");
  }
  connectors_[protocol] = std::move(connector);
  return Status::OK();
}

Result<std::shared_ptr<Connector>> ConnectorRegistry::Get(
    const std::string& protocol) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = connectors_.find(protocol);
  if (it == connectors_.end()) {
    return Status::NotFound("no connector for protocol '" + protocol + "'");
  }
  return it->second;
}

std::vector<std::string> ConnectorRegistry::Protocols() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [protocol, connector] : connectors_) {
    out.push_back(protocol);
  }
  return out;
}

FormatRegistry::FormatRegistry() {
  formats_["csv"] = std::make_shared<CsvFormat>("csv", ',');
  formats_["tsv"] = std::make_shared<CsvFormat>("tsv", '\t');
  formats_["json"] = std::make_shared<JsonFormat>();
}

FormatRegistry& FormatRegistry::Default() {
  static FormatRegistry* registry = new FormatRegistry;
  return *registry;
}

Status FormatRegistry::Register(std::shared_ptr<Format> format) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string name = format->name();
  if (formats_.count(name) > 0) {
    return Status::AlreadyExists("format '" + name + "' already registered");
  }
  formats_[name] = std::move(format);
  return Status::OK();
}

Result<std::shared_ptr<Format>> FormatRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = formats_.find(name);
  if (it == formats_.end()) {
    return Status::NotFound("no format named '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> FormatRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, format] : formats_) out.push_back(name);
  return out;
}

// ---------------------------------------------------------------------
// LoadDataObject
// ---------------------------------------------------------------------

namespace {

std::string InferProtocol(const DataSourceParams& params) {
  std::string protocol = params.Get("protocol");
  if (!protocol.empty()) return protocol;
  std::string source = params.Get("source");
  if (params.Has("data")) return "inline";
  if (StartsWith(source, "https://")) return "https";
  if (StartsWith(source, "http://")) return "http";
  if (StartsWith(source, "ftp://")) return "ftp";
  if (StartsWith(source, "jdbc:")) return "jdbc";
  return "file";
}

std::string InferFormat(const DataSourceParams& params) {
  std::string format = params.Get("format");
  if (!format.empty()) return format;
  std::string source = params.Get("source");
  if (EndsWith(source, ".json")) return "json";
  if (EndsWith(source, ".tsv")) return "tsv";
  return "csv";
}

/// Parses a numeric D-section param, keeping `fallback` when the key is
/// absent or malformed (connector params are schemaless strings; a bad
/// value must not abort the load path that predates these knobs).
double NumericParam(const DataSourceParams& params, const std::string& key,
                    double fallback) {
  if (!params.Has(key)) return fallback;
  Result<double> parsed = Value(params.Get(key)).ToDouble();
  return parsed.ok() ? *parsed : fallback;
}

}  // namespace

RetryPolicy RetryPolicyFromParams(const DataSourceParams& params) {
  RetryPolicy policy;
  policy.max_attempts = static_cast<int>(
      NumericParam(params, "retry.max_attempts", policy.max_attempts));
  if (policy.max_attempts < 1) policy.max_attempts = 1;
  policy.backoff_ms =
      NumericParam(params, "retry.backoff_ms", policy.backoff_ms);
  policy.backoff_multiplier = NumericParam(params, "retry.backoff_multiplier",
                                           policy.backoff_multiplier);
  policy.jitter_seed = static_cast<uint64_t>(
      NumericParam(params, "retry.jitter_seed", 0));
  policy.deadline_ms = NumericParam(params, "timeout_ms", policy.deadline_ms);
  return policy;
}

Result<TablePtr> LoadDataObject(const DataSourceParams& params,
                                const std::optional<Schema>& declared,
                                const std::vector<ColumnMapping>& mappings,
                                ConnectorRegistry* connectors,
                                FormatRegistry* formats, Tracer* tracer,
                                SpanId trace_parent, LoadReport* report) {
  if (connectors == nullptr) connectors = &ConnectorRegistry::Default();
  if (formats == nullptr) formats = &FormatRegistry::Default();
  MetricsRegistry& metrics = MetricsRegistry::Default();
  std::string protocol = InferProtocol(params);
  SI_ASSIGN_OR_RETURN(std::shared_ptr<Connector> connector,
                      connectors->Get(protocol));
  std::string format_name = InferFormat(params);
  SI_ASSIGN_OR_RETURN(std::shared_ptr<Format> format,
                      formats->Get(format_name));

  CircuitBreaker* breaker = CircuitBreakerRegistry::Default().Get(protocol);
  Gauge* open_gauge = metrics.GetGauge(
      "circuit_open_" + protocol,
      "1 while the '" + protocol + "' circuit breaker is open");
  FaultInjector& faults = FaultInjector::Get();
  Counter* faults_counter = metrics.GetCounter(
      "faults_injected_total", "faults fired by the injection harness");

  RetryPolicy policy = RetryPolicyFromParams(params);
  RetryState retry(policy);
  auto started = std::chrono::steady_clock::now();
  auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - started)
        .count();
  };

  int attempt = 0;
  while (true) {
    ++attempt;
    if (report != nullptr) report->attempts = attempt;

    // One fetch+parse attempt. Failures fall through to the retry
    // decision below.
    Status error;
    if (!breaker->Allow()) {
      // Fail fast; deliberately NOT retryable (see IsRetryable) — the
      // whole point of the breaker is to shed load while open.
      open_gauge->Set(1);
      return Status::Unavailable(
          "circuit breaker for protocol '" + protocol +
          "' is open after " +
          std::to_string(breaker->consecutive_failures()) +
          " consecutive failures; retry later");
    }
    std::string payload;
    {
      ScopedSpan fetch_span(tracer, "io.fetch", trace_parent);
      fetch_span.AddAttribute("protocol", protocol);
      fetch_span.AddAttribute("source", params.Get("source"));
      fetch_span.AddAttribute("attempt", static_cast<int64_t>(attempt));
      std::optional<Status> injected = faults.Check(kFaultIoFetch);
      if (injected.has_value()) {
        faults_counter->Increment();
        error = *injected;
      } else {
        Result<std::string> fetched = connector->Fetch(params);
        if (fetched.ok()) {
          payload = std::move(*fetched);
          fetch_span.AddAttribute("bytes",
                                  static_cast<int64_t>(payload.size()));
        } else {
          error = fetched.status();
        }
      }
    }
    if (error.ok()) {
      breaker->RecordSuccess();
      open_gauge->Set(0);
      metrics
          .GetCounter("io_reads_total",
                      "connector payload fetches (all protocols)")
          ->Increment();
      metrics.GetCounter("io_bytes_total", "raw payload bytes fetched")
          ->Increment(static_cast<int64_t>(payload.size()));

      ScopedSpan parse_span(tracer, "io.parse", trace_parent);
      parse_span.AddAttribute("format", format_name);
      parse_span.AddAttribute("attempt", static_cast<int64_t>(attempt));
      std::optional<Status> injected = faults.Check(kFaultIoParse);
      if (injected.has_value()) {
        faults_counter->Increment();
        error = *injected;
      } else {
        ParseReport parse_report;
        Result<TablePtr> table =
            format->Parse(payload, params, declared, mappings, &parse_report);
        if (table.ok()) {
          parse_span.AddAttribute(
              "rows", static_cast<int64_t>((*table)->num_rows()));
          int64_t quarantined =
              static_cast<int64_t>(parse_report.quarantined.size());
          if (parse_report.rows_skipped > 0) {
            parse_span.AddAttribute("rows_rejected",
                                    parse_report.rows_skipped);
          }
          if (report != nullptr) {
            report->rows_quarantined = quarantined;
            if (quarantined > 0) {
              // Huge quarantines stage through compressed spill blocks
              // instead of doubling the load's resident footprint
              // (docs/ROBUSTNESS.md, "Spilling to disk").
              constexpr size_t kQuarantineStagingRows = 64 * 1024;
              SI_ASSIGN_OR_RETURN(report->quarantine,
                                  QuarantineTable(parse_report.quarantined,
                                                  kQuarantineStagingRows));
            }
          }
          metrics
              .GetCounter("rows_quarantined_total",
                          "rows diverted to quarantine side tables")
              ->Increment(quarantined);
          // `mem_budget` D-section param: hard cap on what this source may
          // materialize (main table + quarantine side table). A
          // process-wide cap can refuse oversized loads too. The check
          // charges nothing: no reservation outlives the load, so a
          // momentary charge would only put a spike on the ledger that
          // per-query budget checks then see.
          size_t bytes = (*table)->ApproxBytes();
          if (report != nullptr && report->quarantine != nullptr) {
            bytes += report->quarantine->ApproxBytes();
          }
          double cap = NumericParam(params, "mem_budget", 0);
          if (cap > 0 && static_cast<double>(bytes) > cap) {
            return Status::ResourceExhausted(
                "source '" + params.Get("source") + "' materialized " +
                std::to_string(bytes) + " bytes, over its mem_budget of " +
                std::to_string(static_cast<int64_t>(cap)) + " bytes");
          }
          SI_RETURN_IF_ERROR(
              MemoryBudget::Process().CheckFits(bytes, "source:load"));
          return table;
        }
        error = table.status();
      }
    } else {
      breaker->RecordFailure();
      open_gauge->Set(breaker->state() == CircuitBreaker::State::kOpen ? 1
                                                                       : 0);
    }

    // Retry decision: transient error, attempts and deadline permitting.
    if (!retry.ShouldRetryAfter(error, attempt, elapsed_ms())) {
      if (policy.deadline_ms > 0 && elapsed_ms() >= policy.deadline_ms &&
          IsRetryable(error)) {
        return Status::DeadlineExceeded(
                   "load exceeded timeout_ms=" +
                   std::to_string(static_cast<int64_t>(policy.deadline_ms)))
            .WithContext(error.message());
      }
      if (attempt > 1) {
        return error.WithContext("after " + std::to_string(attempt) +
                                 " attempts");
      }
      return error;
    }
    metrics
        .GetCounter("io_retries_total",
                    "source load attempts retried after transient failures")
        ->Increment();
  }
}

Result<TablePtr> LoadAppendBatch(const DataSourceParams& params,
                                 const TablePtr& base,
                                 const std::vector<ColumnMapping>& mappings,
                                 ConnectorRegistry* connectors,
                                 FormatRegistry* formats, Tracer* tracer,
                                 SpanId trace_parent, LoadReport* report) {
  if (base == nullptr) {
    return Status::InvalidArgument(
        "LoadAppendBatch needs the base table to append onto");
  }
  // Parsing with the base schema declared is what keeps the batch typed:
  // the format readers coerce cells to the declared column types and
  // build dictionary-encoded string columns through the shared interner,
  // so ConcatTables merges the batch's dictionaries into the base's
  // (one sorted-union pass per column) instead of re-encoding.
  SI_ASSIGN_OR_RETURN(
      TablePtr batch,
      LoadDataObject(params, base->schema(), mappings, connectors, formats,
                     tracer, trace_parent, report));
  if (!(batch->schema() == base->schema())) {
    return Status::SchemaError(
        "append batch for source '" + params.Get("source") +
        "' parsed to a different schema than the base object");
  }
  MetricsRegistry::Default()
      .GetCounter("io_append_batches_total",
                  "typed append batches ingested for streaming appends")
      ->Increment();
  return batch;
}

}  // namespace shareinsights
