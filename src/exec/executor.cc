#include "exec/executor.h"

#include <chrono>
#include <condition_variable>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/fault.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "ops/exec_context.h"
#include "ops/spill.h"
#include "table/append.h"

namespace shareinsights {

void DataStore::Put(const std::string& name, TablePtr table) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_[name] = std::move(table);
}

Result<TablePtr> DataStore::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("data object '" + name +
                            "' is not materialized");
  }
  return it->second;
}

bool DataStore::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

void DataStore::Erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.erase(name);
}

void DataStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.clear();
}

std::vector<std::string> DataStore::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

std::string ExecutionStats::ToString() const {
  std::ostringstream out;
  out << "sources=" << sources_loaded << " flows=" << flows_executed
      << " skipped=" << flows_skipped << " rows=" << rows_produced;
  if (flows_cached > 0) out << " cached=" << flows_cached;
  out << " endpoint_bytes=" << endpoint_bytes << " wall_ms=" << wall_ms;
  if (io_retries > 0) out << " io_retries=" << io_retries;
  if (flow_retries > 0) out << " flow_retries=" << flow_retries;
  if (sources_degraded > 0) out << " degraded=" << sources_degraded;
  if (rows_quarantined > 0) out << " quarantined=" << rows_quarantined;
  if (flows_cancelled > 0) out << " cancelled=" << flows_cancelled;
  if (mem_rejections > 0) out << " mem_rejections=" << mem_rejections;
  if (spills > 0) {
    out << " spills=" << spills << " spill_written=" << spill_bytes_written
        << " spill_read=" << spill_bytes_read;
  }
  if (flows_delta > 0) out << " delta=" << flows_delta;
  if (flows_full_fallback > 0) out << " full_fallback=" << flows_full_fallback;
  return out.str();
}

std::string ExecutionStats::ProfileString() const {
  std::vector<FlowTiming> sorted = flow_timings;
  std::sort(sorted.begin(), sorted.end(),
            [](const FlowTiming& a, const FlowTiming& b) {
              return a.ms > b.ms;
            });
  double total = 0;
  for (const FlowTiming& timing : sorted) total += timing.ms;
  std::ostringstream out;
  out << "flow profile (total " << total << " ms):\n";
  double cumulative = 0;
  for (const FlowTiming& timing : sorted) {
    cumulative += timing.ms;
    out << "  " << timing.ms << " ms  (" << timing.rows << " rows, "
        << (total > 0 ? static_cast<int>(100.0 * cumulative / total) : 0)
        << "% cum)  " << timing.flow << "\n";
  }
  return out.str();
}

namespace {

/// The current tables of `flow`'s inputs in `store`.
Result<std::vector<TablePtr>> FlowInputs(const CompiledFlow& flow,
                                         const DataStore& store) {
  std::vector<TablePtr> inputs;
  inputs.reserve(flow.inputs.size());
  for (const std::string& input : flow.inputs) {
    SI_ASSIGN_OR_RETURN(TablePtr table, store.Get(input));
    inputs.push_back(std::move(table));
  }
  return inputs;
}

}  // namespace

class Executor::Env {
 public:
  /// Output of one flow run; `cached` when the result cache answered it.
  struct FlowOutput {
    TablePtr table;
    bool cached = false;
  };

  Env(const ExecuteOptions& options, ScopedSpan* run_span)
      : options_(options),
        run_span_(run_span),
        pool_(options.num_threads > 0
                  ? options.num_threads
                  : std::max<size_t>(1, std::thread::hardware_concurrency())),
        // A dedicated per-query budget parented to the process budget when
        // a cap is configured, else the process budget itself (pure
        // accounting).
        query_budget_("query", options.mem_budget_bytes,
                      &MemoryBudget::Process()),
        budget_(options.mem_budget_bytes > 0 ? &query_budget_
                                             : &MemoryBudget::Process()) {
    // Operators facing a refused reservation degrade to compressed
    // on-disk partitions instead of failing (ops/spill.h). The scratch
    // directory, and any partitions an error or cancel left behind, is
    // removed when the call returns.
    if (options.enable_spill) {
      SpillScratch::Options spill_options;
      spill_options.base_dir = options.spill_dir;
      spill_options.chunk_rows = options.spill_chunk_rows;
      spill_ = std::make_unique<SpillScratch>(spill_options);
    }
  }

  ScopedSpan& run_span() { return *run_span_; }
  ThreadPool& pool() { return pool_; }
  MemoryBudget* budget() { return budget_; }

  Status CheckCancel() const {
    return options_.cancel != nullptr ? options_.cancel->Check()
                                      : Status::OK();
  }

  ExecContext Context(SpanId parent) {
    ExecContext ctx;
    ctx.pool = &pool_;
    if (options_.morsel_rows > 0) ctx.morsel_rows = options_.morsel_rows;
    ctx.tracer = options_.tracer;
    ctx.trace_parent = parent;
    ctx.cancel = options_.cancel;
    ctx.budget = budget_;
    ctx.spill = spill_.get();
    return ctx;
  }

  /// One task of one flow, on every path: the cancellation probe at the
  /// DAG-node boundary, the `<span_prefix><task>` span, the `exec.node`
  /// fault site and `call(ctx)`, the operator call under the task's
  /// context. An injected transient status fails the task exactly like a
  /// real node fault, so the retry and fallback paths get exercised.
  template <typename Call>
  Result<TablePtr> Step(const char* span_prefix, const CompiledFlow& flow,
                        size_t t, const std::vector<TablePtr>& inputs,
                        SpanId parent, Call&& call) {
    SI_RETURN_IF_ERROR(CheckCancel());
    Tracer* tracer = options_.tracer;
    ScopedSpan task_span(tracer, span_prefix + flow.task_names[t], parent);
    if (tracer != nullptr) {
      task_span.AddAttribute("op", flow.ops[t]->name());
      int64_t rows_in = 0;
      for (const TablePtr& input : inputs) {
        rows_in += static_cast<int64_t>(input->num_rows());
      }
      task_span.AddAttribute("rows_in", rows_in);
    }
    Result<TablePtr> out(nullptr);
    if (std::optional<Status> injected =
            FaultInjector::Get().Check(kFaultExecNode)) {
      MetricsRegistry::Default()
          .GetCounter("faults_injected_total",
                      "faults fired by the injection harness")
          ->Increment();
      out = std::move(*injected);
    } else {
      out = call(Context(task_span.id()));
    }
    if (!out.ok()) {
      return out.status().WithContext("executing task '" +
                                      flow.task_names[t] + "' of flow '" +
                                      flow.ToString() + "'");
    }
    task_span.AddAttribute("rows_out",
                           static_cast<int64_t>((*out)->num_rows()));
    return out;
  }

  /// Result-cache key of `flow` over exactly these input table instances;
  /// nullopt when caching is off or the flow is not fingerprintable.
  std::optional<ResultCache::Key> CacheKey(
      const CompiledFlow& flow, const std::vector<TablePtr>& inputs) const {
    if (options_.result_cache == nullptr || flow.fingerprint == 0) {
      return std::nullopt;
    }
    ResultCache::Key key;
    key.plan_hash = flow.fingerprint;
    for (const TablePtr& input : inputs) {
      key.input_versions.push_back(input->version());
    }
    return key;
  }

  /// One flow over its current inputs in `store`, re-run from its inputs
  /// after a transient (IsRetryable) failure up to flow_retry_attempts
  /// times in all; `*retries` counts the re-runs.
  Result<FlowOutput> RunFlow(const CompiledFlow& flow, const DataStore& store,
                             SpanId parent, int* retries) {
    int max_attempts = std::max(1, options_.flow_retry_attempts);
    for (int attempt = 1;; ++attempt) {
      Result<FlowOutput> out = RunFlowOnce(flow, store, parent);
      if (out.ok() || attempt >= max_attempts || !IsRetryable(out.status())) {
        return out;
      }
      ++*retries;
      MetricsRegistry::Default()
          .GetCounter("flow_retries_total",
                      "flows re-run after transient failures")
          ->Increment();
      SI_LOG(kWarning) << "retrying flow '" << flow.ToString()
                       << "' after transient failure: " << out.status();
    }
  }

  /// The failure tail every error return of Run and ExecuteAppend passes
  /// through: marks a cancelled run on its span and counts cancelled and
  /// budget-refused runs, so appends and full runs are observed alike.
  Status Fail(Status status) {
    if (status.code() == StatusCode::kCancelled) {
      run_span_->AddAttribute("cancelled", options_.cancel != nullptr
                                               ? options_.cancel->reason()
                                               : status.message());
      MetricsRegistry::Default()
          .GetCounter("queries_cancelled_total",
                      "runs/queries aborted by cooperative cancellation")
          ->Increment();
    }
    if (status.code() == StatusCode::kResourceExhausted) {
      MetricsRegistry::Default()
          .GetCounter("mem_budget_failed_runs_total",
                      "runs aborted by a refused memory reservation")
          ->Increment();
    }
    return status;
  }

  /// Completes a successful call's stats: spill counters and wall time.
  void Finish(ExecutionStats* stats) {
    if (spill_ != nullptr && spill_->spills() > 0) {
      stats->spills = static_cast<int>(spill_->spills());
      stats->spill_bytes_written = spill_->bytes_written();
      stats->spill_bytes_read = spill_->bytes_read();
      run_span_->AddAttribute("spills",
                              static_cast<int64_t>(spill_->spills()));
    }
    stats->wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  }

 private:
  /// One attempt of RunFlow. Result-cache lookup first: a fingerprintable
  /// flow over exactly these input table instances may have run before
  /// (shared tables, repeated incremental runs, sibling dashboards).
  /// Operators are pure, so a hit is byte-identical to re-execution.
  Result<FlowOutput> RunFlowOnce(const CompiledFlow& flow,
                                 const DataStore& store, SpanId parent) {
    ScopedSpan flow_span(options_.tracer,
                         "exec.flow:" + Join(flow.outputs, ","), parent);
    SI_ASSIGN_OR_RETURN(std::vector<TablePtr> inputs,
                        FlowInputs(flow, store));
    std::optional<ResultCache::Key> cache_key = CacheKey(flow, inputs);
    FlowOutput out;
    if (cache_key.has_value()) {
      if (std::optional<TablePtr> hit =
              options_.result_cache->Lookup(*cache_key)) {
        flow_span.AddAttribute("cache", "hit");
        out = {std::move(*hit), true};
      }
    }
    if (!out.cached) {
      std::vector<TablePtr> stage_inputs = std::move(inputs);
      for (size_t t = 0; t < flow.ops.size(); ++t) {
        if (t > 0) stage_inputs = {out.table};
        SI_ASSIGN_OR_RETURN(
            out.table,
            Step("exec.task:", flow, t, stage_inputs, flow_span.id(),
                 [&](const ExecContext& ctx) {
                   return flow.ops[t]->Execute(stage_inputs, ctx);
                 }));
      }
      if (cache_key.has_value()) {
        options_.result_cache->Insert(*cache_key, out.table);
      }
    }
    flow_span.AddAttribute("rows_out",
                           static_cast<int64_t>(out.table->num_rows()));
    return out;
  }

  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  const ExecuteOptions& options_;
  ScopedSpan* run_span_;
  ThreadPool pool_;
  MemoryBudget query_budget_;
  MemoryBudget* budget_;
  std::unique_ptr<SpillScratch> spill_;
};

Executor::Executor(ExecuteOptions options) : options_(std::move(options)) {}

Result<ExecutionStats> Executor::Execute(const ExecutionPlan& plan,
                                         DataStore* store) {
  return Run(plan, store, nullptr);
}

Result<ExecutionStats> Executor::ExecuteIncremental(
    const ExecutionPlan& plan, DataStore* store,
    const std::set<std::string>& dirty) {
  return Run(plan, store, &dirty);
}

Result<ExecutionStats> Executor::Run(const ExecutionPlan& plan,
                                     DataStore* store,
                                     const std::set<std::string>* dirty) {
  ScopedSpan run_span(options_.tracer, "exec.run", options_.trace_parent);
  run_span.AddAttribute("flows", static_cast<int64_t>(plan.flows.size()));
  run_span.AddAttribute("mode", dirty == nullptr ? "full" : "incremental");
  Env env(options_, &run_span);
  ExecutionStats stats;
  Status status = RunPlan(plan, store, dirty, env, &stats);
  if (!status.ok()) return env.Fail(std::move(status));
  env.Finish(&stats);
  run_span.AddAttribute("flows_executed",
                        static_cast<int64_t>(stats.flows_executed));
  run_span.AddAttribute("rows_produced", stats.rows_produced);

  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics.GetCounter("runs_total", "executor runs (full + incremental)")
      ->Increment();
  metrics
      .GetCounter("flows_executed_total", "flows executed across all runs")
      ->Increment(stats.flows_executed);
  metrics
      .GetCounter("flows_skipped_total",
                  "flows reused unchanged by incremental runs")
      ->Increment(stats.flows_skipped);
  metrics
      .GetCounter("flows_cached_total",
                  "flows answered by the shared result cache")
      ->Increment(stats.flows_cached);
  metrics
      .GetCounter("sources_loaded_total", "source data objects materialized")
      ->Increment(stats.sources_loaded);
  metrics.GetCounter("rows_produced_total", "rows produced by all flows")
      ->Increment(stats.rows_produced);
  metrics
      .GetHistogram("run_ms", Histogram::LatencyBoundsMs(),
                    "wall time of one executor run")
      ->Observe(stats.wall_ms);
  Histogram* flow_ms_hist = metrics.GetHistogram(
      "flow_ms", Histogram::LatencyBoundsMs(), "wall time of one flow");
  for (const FlowTiming& timing : stats.flow_timings) {
    flow_ms_hist->Observe(timing.ms);
  }

  SI_LOG(kInfo) << "executed plan: " << stats.ToString();
  return stats;
}

Status Executor::RunPlan(const ExecutionPlan& plan, DataStore* store,
                         const std::set<std::string>* dirty, Env& env,
                         ExecutionStats* stats_out) {
  ExecutionStats& stats = *stats_out;
  Tracer* tracer = options_.tracer;
  ScopedSpan& run_span = env.run_span();

  // ------------------------------------------------------------------
  // Decide which flows must run. A full run executes everything; an
  // incremental run propagates dirtiness through the DAG.
  // ------------------------------------------------------------------
  size_t n = plan.flows.size();
  std::vector<bool> must_run(n, dirty == nullptr);
  std::set<std::string> dirty_objects;
  if (dirty != nullptr) {
    dirty_objects = *dirty;
    // plan.flows is topologically ordered, so one forward sweep settles
    // transitive dirtiness.
    for (size_t i = 0; i < n; ++i) {
      const CompiledFlow& flow = plan.flows[i];
      bool run = false;
      for (const std::string& input : flow.inputs) {
        if (dirty_objects.count(input) > 0) run = true;
      }
      for (const std::string& output : flow.outputs) {
        if (!store->Has(output) || dirty_objects.count(output) > 0) {
          run = true;
        }
      }
      if (run) {
        must_run[i] = true;
        for (const std::string& output : flow.outputs) {
          dirty_objects.insert(output);
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Load sources (all on a full run; dirty/missing ones incrementally).
  // ------------------------------------------------------------------
  {
    ScopedSpan load_span(tracer, "exec.load_sources", run_span.id());
    for (const auto& [name, decl] : plan.sources) {
      // Source loads can block on slow providers; probe the token between
      // them so a cancelled run stops ingesting.
      SI_RETURN_IF_ERROR(env.CheckCancel());
      bool need = dirty == nullptr || !store->Has(name) ||
                  dirty->count(name) > 0;
      if (!need) continue;
      ScopedSpan source_span(tracer, "exec.source:" + name, load_span.id());
      DataSourceParams params = decl.params;
      if (!params.Has("base_dir") && !options_.base_dir.empty()) {
        params.Set("base_dir", options_.base_dir);
      }
      std::optional<Schema> declared;
      if (!decl.columns.empty()) declared = decl.DeclaredSchema();
      LoadReport report;
      Result<TablePtr> table =
          LoadDataObject(params, declared, decl.columns, options_.connectors,
                         options_.formats, tracer, source_span.id(), &report);
      stats.io_retries += report.attempts - 1;
      if (report.attempts > 1) {
        source_span.AddAttribute("attempts",
                                 static_cast<int64_t>(report.attempts));
      }
      if (!table.ok()) {
        // Degraded mode: an `optional: true` source that is down after
        // all retries continues as an empty table with the compiled
        // schema, so downstream flows still run end to end.
        bool optional_source = params.Get("optional") == "true";
        if (optional_source && options_.degrade_optional_sources) {
          auto schema_it = plan.schemas.find(name);
          Schema schema = schema_it != plan.schemas.end()
                              ? schema_it->second
                              : decl.DeclaredSchema();
          store->Put(name, Table::Empty(std::move(schema)));
          ++stats.sources_degraded;
          source_span.AddAttribute("degraded", "true");
          source_span.AddAttribute("error", table.status().ToString());
          MetricsRegistry::Default()
              .GetCounter("sources_degraded_total",
                          "optional sources continued as empty tables")
              ->Increment();
          SI_LOG(kWarning) << "source '" << name
                           << "' degraded to empty table: " << table.status();
          continue;
        }
        return table.status().WithContext("loading source '" + name + "'");
      }
      if (report.rows_quarantined > 0) {
        stats.rows_quarantined += report.rows_quarantined;
        source_span.AddAttribute("rows_quarantined", report.rows_quarantined);
        store->Put(name + kQuarantineSuffix, report.quarantine);
      }
      source_span.AddAttribute("rows",
                               static_cast<int64_t>((*table)->num_rows()));
      store->Put(name, std::move(*table));
      ++stats.sources_loaded;
    }
  }

  // Resolve shared inputs through the platform catalog.
  {
    ScopedSpan shared_span(tracer, "exec.resolve_shared", run_span.id());
    for (const std::string& name : plan.shared_inputs) {
      if (dirty != nullptr && store->Has(name) && dirty->count(name) == 0) {
        continue;
      }
      if (options_.shared == nullptr) {
        return Status::NotFound("flow needs shared data object '" + name +
                                "' but no shared catalog is configured");
      }
      Result<TablePtr> table = options_.shared->SharedTable(name);
      if (!table.ok()) {
        return table.status().WithContext("resolving shared data object '" +
                                          name + "'");
      }
      store->Put(name, std::move(*table));
    }
  }

  // ------------------------------------------------------------------
  // Schedule flows over the pool, releasing dependents as inputs land.
  // ------------------------------------------------------------------
  std::unordered_map<std::string, size_t> producer;
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& output : plan.flows[i].outputs) {
      producer[output] = i;
    }
  }
  std::vector<std::vector<size_t>> dependents(n);
  std::vector<int> pending(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& input : plan.flows[i].inputs) {
      auto it = producer.find(input);
      if (it != producer.end()) {
        dependents[it->second].push_back(i);
        ++pending[i];
      }
    }
  }

  ThreadPool& pool = env.pool();
  std::mutex mu;
  std::condition_variable done_cv;
  size_t completed = 0;
  Status first_error;

  // Stage span covering every flow execution; started/ended manually
  // because the scheduling block below has early returns.
  SpanId flows_stage = tracer != nullptr
                           ? tracer->StartSpan("exec.flows", run_span.id())
                           : 0;

  // The scheduling closure: submit a flow (or mark a skipped one done).
  std::function<void(size_t)> submit = [&](size_t index) {
    pool.Submit([&, index] {
      const CompiledFlow& flow = plan.flows[index];
      Result<Env::FlowOutput> out(Env::FlowOutput{});
      double flow_ms = 0;
      int retries = 0;
      if (must_run[index]) {
        auto flow_start = std::chrono::steady_clock::now();
        out = env.RunFlow(flow, *store, flows_stage, &retries);
        if (out.ok()) {
          for (const std::string& output : flow.outputs) {
            store->Put(output, out->table);
          }
        }
        flow_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - flow_start)
                      .count();
      }
      std::unique_lock<std::mutex> lock(mu);
      stats.flow_retries += retries;
      if (!out.ok()) {
        if (out.status().code() == StatusCode::kCancelled) {
          ++stats.flows_cancelled;
        } else if (out.status().code() == StatusCode::kResourceExhausted) {
          ++stats.mem_rejections;
        }
        if (first_error.ok()) first_error = out.status();
      } else {
        if (!must_run[index]) {
          ++stats.flows_skipped;
        } else {
          auto rows = static_cast<int64_t>(out->table->num_rows());
          stats.rows_produced += rows;
          if (out->cached) {
            ++stats.flows_cached;
          } else {
            ++stats.flows_executed;
            stats.flow_timings.push_back(
                FlowTiming{flow.ToString(), flow_ms, rows});
          }
        }
        for (size_t dep : dependents[index]) {
          if (--pending[dep] == 0 && first_error.ok()) submit(dep);
        }
      }
      ++completed;
      done_cv.notify_all();
    });
  };

  {
    std::unique_lock<std::mutex> lock(mu);
    size_t roots = 0;
    for (size_t i = 0; i < n; ++i) {
      if (pending[i] == 0) {
        submit(i);
        ++roots;
      }
    }
    if (n > 0 && roots == 0) {
      if (tracer != nullptr) tracer->EndSpan(flows_stage);
      return Status::Internal("plan has flows but no runnable roots");
    }
    done_cv.wait(lock, [&] {
      if (!first_error.ok()) return true;
      return completed == n;
    });
  }
  pool.WaitIdle();
  if (tracer != nullptr) tracer->EndSpan(flows_stage);
  SI_RETURN_IF_ERROR(first_error);

  // Endpoint transfer accounting.
  ScopedSpan endpoints_span(tracer, "exec.endpoints", run_span.id());
  for (const std::string& endpoint : plan.endpoints) {
    Result<TablePtr> table = store->Get(endpoint);
    if (table.ok()) {
      stats.endpoint_bytes += static_cast<int64_t>((*table)->ApproxBytes());
    }
  }
  endpoints_span.AddAttribute("endpoint_bytes", stats.endpoint_bytes);
  return Status::OK();
}

Result<AppendOutcome> Executor::ExecuteAppend(const ExecutionPlan& plan,
                                              DataStore* store,
                                              const std::string& object,
                                              const TablePtr& delta_rows,
                                              IncrementalState* inc) {
  ScopedSpan run_span(options_.tracer, "exec.append", options_.trace_parent);
  run_span.AddAttribute("object", object);
  Env env(options_, &run_span);
  AppendOutcome outcome;
  Status status =
      ApplyAppend(plan, store, object, delta_rows, inc, env, &outcome);
  if (!status.ok()) return env.Fail(std::move(status));
  // An empty batch changed nothing, so there is no append to account.
  if (delta_rows->num_rows() == 0) return outcome;
  ExecutionStats& stats = outcome.stats;
  env.Finish(&stats);
  run_span.AddAttribute("flows_delta",
                        static_cast<int64_t>(stats.flows_delta));
  run_span.AddAttribute("flows_full_fallback",
                        static_cast<int64_t>(stats.flows_full_fallback));
  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics.GetCounter("appends_total", "streaming append batches applied")
      ->Increment();
  metrics
      .GetCounter("flows_delta_total",
                  "flows maintained by delta propagation")
      ->Increment(stats.flows_delta);
  metrics
      .GetHistogram("append_ms", Histogram::LatencyBoundsMs(),
                    "wall time of one streaming append")
      ->Observe(stats.wall_ms);
  SI_LOG(kInfo) << "applied append to '" << object
                << "': " << stats.ToString();
  return outcome;
}

Status Executor::ApplyAppend(const ExecutionPlan& plan, DataStore* store,
                             const std::string& object,
                             const TablePtr& delta_rows,
                             IncrementalState* inc, Env& env,
                             AppendOutcome* outcome) {
  ExecutionStats& stats = outcome->stats;
  Tracer* tracer = options_.tracer;
  MemoryBudget* budget = env.budget();
  SpanId run_id = env.run_span().id();

  if (delta_rows == nullptr) {
    return Status::InvalidArgument("append batch is null");
  }
  SI_ASSIGN_OR_RETURN(TablePtr base, store->Get(object));
  if (!(delta_rows->schema() == base->schema())) {
    return Status::SchemaError("append batch does not match the schema of '" +
                               object + "'");
  }
  env.run_span().AddAttribute("rows",
                              static_cast<int64_t>(delta_rows->num_rows()));
  if (delta_rows->num_rows() == 0) {
    // Nothing to do — and nothing to invalidate: ConcatTables would hand
    // back the base instance, so replacing it would retire a version that
    // is in fact still live.
    return Status::OK();
  }

  // Accumulator state is only valid against the plan it was seeded from;
  // a recompiled plan (new ops, reordered flows) resets it, and the next
  // append re-seeds from the store.
  if (inc != nullptr) {
    std::vector<std::string> tags;
    tags.reserve(plan.flows.size());
    for (const CompiledFlow& flow : plan.flows) tags.push_back(flow.ToString());
    if (inc->flow_tags != tags) {
      inc->Clear();
      inc->flow_tags = std::move(tags);
    }
  }

  SI_RETURN_IF_ERROR(env.CheckCancel());
  // The delta itself is a materialization this run is responsible for;
  // charge it up front so a flood of appends hits the budget before the
  // allocator.
  SI_ASSIGN_OR_RETURN(
      MemoryReservation delta_res,
      budget->Reserve(delta_rows->ApproxBytes(), "append:delta"));

  // Tables replaced by this append: pre-append instance (for seeding) and
  // dead version (for precise result-cache invalidation).
  std::map<std::string, TablePtr> prev_tables;
  std::vector<uint64_t> dead_versions;
  auto replace_object = [&](const std::string& name, TablePtr table) {
    Result<TablePtr> old = store->Get(name);
    if (old.ok()) {
      prev_tables.emplace(name, *old);
      outcome->prev_versions.emplace(name, (*old)->version());
      dead_versions.push_back((*old)->version());
    }
    store->Put(name, std::move(table));
  };

  {
    // Concat transiently holds base + delta alongside the result.
    SI_ASSIGN_OR_RETURN(
        MemoryReservation concat_res,
        budget->Reserve(base->ApproxBytes() + delta_rows->ApproxBytes(),
                        "append:concat"));
    SI_ASSIGN_OR_RETURN(TablePtr grown, ConcatTables(base, delta_rows));
    replace_object(object, std::move(grown));
  }
  outcome->deltas[object] = delta_rows;

  // The accumulator of task `t` of flow `index`: carried over in `inc`,
  // or seeded from the PRE-append inputs by replaying the (pass-through)
  // prefix of the chain over the previous table instances.
  auto accumulator = [&](size_t index, size_t t,
                         const ExecContext& ctx) -> Result<OperatorStatePtr> {
    const CompiledFlow& flow = plan.flows[index];
    std::pair<size_t, size_t> key{index, t};
    if (inc != nullptr) {
      auto it = inc->op_states.find(key);
      if (it != inc->op_states.end()) return it->second;
    }
    std::vector<TablePtr> seed_inputs;
    for (const std::string& input : flow.inputs) {
      auto prev = prev_tables.find(input);
      if (prev != prev_tables.end()) {
        seed_inputs.push_back(prev->second);
      } else {
        SI_ASSIGN_OR_RETURN(TablePtr table, store->Get(input));
        seed_inputs.push_back(std::move(table));
      }
    }
    TablePtr seed_current;
    for (size_t u = 0; u < t; ++u) {
      SI_ASSIGN_OR_RETURN(
          seed_current,
          flow.ops[u]->Execute(
              u == 0 ? seed_inputs : std::vector<TablePtr>{seed_current},
              ctx));
    }
    SI_ASSIGN_OR_RETURN(
        OperatorStatePtr seeded,
        flow.ops[t]->SeedDeltaState(
            t == 0 ? seed_inputs : std::vector<TablePtr>{seed_current}, ctx));
    if (inc != nullptr) inc->op_states[key] = seeded;
    return seeded;
  };

  // Delta propagation through one flow's operator chain. Returns nullopt
  // when the chain hits a non-incrementalizable node (caller re-runs
  // fully); otherwise {table, is_delta}: an output delta to concatenate
  // (all pass-through) or the whole new output (an accumulator re-emit).
  auto run_delta =
      [&](size_t index) -> Result<std::optional<std::pair<TablePtr, bool>>> {
    const CompiledFlow& flow = plan.flows[index];
    ScopedSpan flow_span(tracer, "exec.delta:" + Join(flow.outputs, ","),
                         run_id);
    std::vector<TablePtr> stage_inputs;
    std::vector<bool> changed(flow.inputs.size(), false);
    for (size_t j = 0; j < flow.inputs.size(); ++j) {
      auto it = outcome->deltas.find(flow.inputs[j]);
      if (it != outcome->deltas.end()) {
        changed[j] = true;
        stage_inputs.push_back(it->second);
      } else {
        SI_ASSIGN_OR_RETURN(TablePtr table, store->Get(flow.inputs[j]));
        stage_inputs.push_back(std::move(table));
      }
    }
    TablePtr current;
    bool is_delta = true;
    for (size_t t = 0; t < flow.ops.size(); ++t) {
      if (t > 0) {
        stage_inputs = {current};
        changed = {true};
      }
      DeltaMode mode = DeltaMode::kNone;
      if (is_delta) {
        mode = flow.ops[t]->delta_mode(changed);
        if (mode == DeltaMode::kNone) {
          return std::optional<std::pair<TablePtr, bool>>();
        }
      }
      SI_ASSIGN_OR_RETURN(
          current,
          env.Step(
              "exec.delta_task:", flow, t, stage_inputs, flow_span.id(),
              [&](const ExecContext& ctx) -> Result<TablePtr> {
                // After an accumulator re-emitted the full table, the rest
                // of the chain runs normally over it.
                if (!is_delta) return flow.ops[t]->Execute(stage_inputs, ctx);
                OperatorStatePtr op_state;
                if (mode == DeltaMode::kAccumulate) {
                  SI_ASSIGN_OR_RETURN(op_state, accumulator(index, t, ctx));
                  // Retained accumulator state is checked against the
                  // budget, not held: like a loaded source, it outlives
                  // this call's budget.
                  SI_RETURN_IF_ERROR(budget->CheckFits(
                      op_state->ApproxBytes(), "append:state"));
                }
                return flow.ops[t]->ExecuteDelta(stage_inputs, changed,
                                                 op_state.get(), ctx);
              }));
      if (mode == DeltaMode::kAccumulate) is_delta = false;
    }
    return std::optional<std::pair<TablePtr, bool>>(
        std::make_pair(std::move(current), is_delta));
  };

  // Forward sweep over the topologically ordered flows, propagating
  // deltas (or full-change marks) object by object.
  for (size_t i = 0; i < plan.flows.size(); ++i) {
    const CompiledFlow& flow = plan.flows[i];
    bool any_delta = false;
    bool any_full = false;
    for (const std::string& input : flow.inputs) {
      if (outcome->deltas.count(input) > 0) any_delta = true;
      if (outcome->full_changed.count(input) > 0) any_full = true;
    }
    bool outputs_ok = true;
    for (const std::string& output : flow.outputs) {
      if (!store->Has(output)) outputs_ok = false;
    }
    if (!any_delta && !any_full && outputs_ok) {
      ++stats.flows_skipped;
      continue;
    }
    SI_RETURN_IF_ERROR(env.CheckCancel());

    // A full-changed or missing input rules the delta path out. A
    // transient failure on the delta path (an injected fault, say) falls
    // back at once to the full re-run below, which retries; the state for
    // this flow is dropped so the next append re-seeds from consistent
    // store contents.
    bool fell_back = false;
    if (any_delta && !any_full && outputs_ok) {
      Result<std::optional<std::pair<TablePtr, bool>>> maintained =
          run_delta(i);
      if (maintained.ok() && maintained->has_value()) {
        auto& [table, is_delta] = **maintained;
        TablePtr output = table;
        if (is_delta) {
          SI_ASSIGN_OR_RETURN(TablePtr prev_out, store->Get(flow.outputs[0]));
          SI_ASSIGN_OR_RETURN(
              MemoryReservation concat_res,
              budget->Reserve(prev_out->ApproxBytes() + table->ApproxBytes(),
                              "append:concat"));
          SI_ASSIGN_OR_RETURN(output, ConcatTables(prev_out, table));
        }
        for (const std::string& name : flow.outputs) {
          replace_object(name, output);
          if (is_delta) {
            outcome->deltas[name] = table;
          } else {
            outcome->full_changed.insert(name);
          }
        }
        stats.rows_produced += static_cast<int64_t>(table->num_rows());
        ++stats.flows_delta;
        // The maintained output is byte-identical to a cold run over the
        // grown inputs, so it is a valid entry under the new input
        // versions — sibling dashboards get append-fresh cache hits.
        Result<std::vector<TablePtr>> grown_inputs = FlowInputs(flow, *store);
        if (grown_inputs.ok()) {
          if (std::optional<ResultCache::Key> key =
                  env.CacheKey(flow, *grown_inputs)) {
            options_.result_cache->Insert(*key, output);
          }
        }
        continue;
      }
      if (!maintained.ok() && !IsRetryable(maintained.status())) {
        return maintained.status();
      }
      fell_back = true;
    }

    // Full re-run fallback.
    if (inc != nullptr) {
      for (size_t t = 0; t < flow.ops.size(); ++t) {
        inc->op_states.erase({i, t});
      }
    }
    if (fell_back || any_delta) ++stats.flows_full_fallback;
    SI_ASSIGN_OR_RETURN(Env::FlowOutput full,
                        env.RunFlow(flow, *store, run_id, &stats.flow_retries));
    for (const std::string& output : flow.outputs) {
      replace_object(output, full.table);
      outcome->full_changed.insert(output);
    }
    stats.rows_produced += static_cast<int64_t>(full.table->num_rows());
    ++stats.flows_executed;
  }

  // Precise invalidation: every table instance this append replaced is
  // dead as a cache input; entries over still-live versions survive.
  if (options_.result_cache != nullptr) {
    for (uint64_t version : dead_versions) {
      options_.result_cache->InvalidateInputVersion(version);
    }
  }
  return Status::OK();
}

}  // namespace shareinsights
