#ifndef SHAREINSIGHTS_EXEC_EXECUTOR_H_
#define SHAREINSIGHTS_EXEC_EXECUTOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "compile/plan.h"
#include "gov/cancellation.h"
#include "gov/memory_budget.h"
#include "io/connector.h"
#include "obs/trace.h"
#include "share/result_cache.h"
#include "table/table.h"

namespace shareinsights {

/// Thread-safe store of materialized data objects (name -> Table). One
/// store backs a dashboard instance: the executor writes flow outputs,
/// the cube/REST layers read endpoints, and incremental runs reuse what
/// is already here.
class DataStore {
 public:
  void Put(const std::string& name, TablePtr table);
  Result<TablePtr> Get(const std::string& name) const;
  bool Has(const std::string& name) const;
  void Erase(const std::string& name);
  void Clear();
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, TablePtr> tables_;
};

/// Supplies materialized tables for shared data objects published by
/// other dashboards (the execution-side counterpart of
/// SharedSchemaSource). Implemented by the share module.
class SharedTableSource {
 public:
  virtual ~SharedTableSource() = default;
  virtual Result<TablePtr> SharedTable(const std::string& name) const = 0;
};

/// Wall time and output size of one executed flow — the raw material for
/// the §6 future-work "tools to identify performance bottlenecks".
struct FlowTiming {
  std::string flow;  // CompiledFlow::ToString()
  double ms = 0;
  int64_t rows = 0;
};

/// Per-run execution telemetry. The sharing/incremental/ablation benches
/// report these numbers; the robustness counters (retries, degraded
/// sources, quarantined rows) feed the fault-tolerance tests and the
/// /api/v1 metrics.
struct ExecutionStats {
  int sources_loaded = 0;
  int flows_executed = 0;
  int flows_skipped = 0;  // clean in an incremental run
  /// Flows answered by the shared result cache (plan fingerprint +
  /// input-table versions matched a previous execution) instead of
  /// running their operators. Disjoint from flows_executed.
  int flows_cached = 0;
  /// Extra fetch+parse attempts spent on source loads (0 = every source
  /// loaded first try).
  int io_retries = 0;
  /// Flows re-run after a transient (retryable) task failure.
  int flow_retries = 0;
  /// Sources marked `optional: true` that were down and continued as an
  /// empty-but-typed table (degraded mode).
  int sources_degraded = 0;
  /// Rows diverted to `<name>__quarantine` side tables by the
  /// `error_policy: quarantine` parse policy.
  int64_t rows_quarantined = 0;
  /// Flows maintained by the streaming delta path (ExecuteAppend):
  /// operators processed only the appended rows (or absorbed them into
  /// persistent accumulators) instead of re-running over the full input.
  int flows_delta = 0;
  /// Append-path flows that fell back to a full re-run (non-
  /// incrementalizable operator, missing previous output, or a fault on
  /// the delta path).
  int flows_full_fallback = 0;
  /// Flows aborted by cooperative cancellation (deadline, client abort,
  /// or server drain). A cancelled run returns kCancelled; this counter
  /// is visible on the stats of partial runs retrieved by callers that
  /// keep them.
  int flows_cancelled = 0;
  /// Flows refused a MemoryBudget reservation (kResourceExhausted).
  int mem_rejections = 0;
  /// Materializations that degraded to compressed on-disk spill
  /// partitions instead of failing when the memory budget refused their
  /// staging reservation (ops/spill.h). A run with spills > 0 completed
  /// correctly under memory pressure; outputs are identical to an
  /// unbudgeted run.
  int spills = 0;
  /// Compressed bytes written to / read back from spill partitions.
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;
  int64_t rows_produced = 0;
  /// Total bytes materialized at endpoint data objects — the proxy for
  /// "data transferred to the browser".
  int64_t endpoint_bytes = 0;
  double wall_ms = 0;
  /// Per-flow timings (executed flows only, unordered).
  std::vector<FlowTiming> flow_timings;

  std::string ToString() const;

  /// Bottleneck report: flows sorted by cost, with cumulative share.
  std::string ProfileString() const;
};

/// Execution knobs.
struct ExecuteOptions {
  /// Worker threads for independent flows (0 = hardware concurrency).
  /// The same pool also runs intra-operator morsels (see
  /// ops/exec_context.h), so a single wide flow saturates it too.
  size_t num_threads = 0;
  /// Target rows per intra-operator morsel (0 = kDefaultMorselRows).
  /// For a fixed value, output is byte-identical across thread counts.
  /// Across values, double `sum`/`avg` may differ in their low bits:
  /// group-by merges per-morsel partials, and double addition is not
  /// associative.
  size_t morsel_rows = 0;
  /// Anchors relative source paths when a source lacks `base_dir`.
  std::string base_dir;
  /// Total attempts per flow (1 = no retries). A flow that fails with a
  /// transient (IsRetryable) status — e.g. an injected `exec.node` fault
  /// — is re-run from its inputs up to this many times. Operators are
  /// pure, so a retried flow is byte-identical to an undisturbed run.
  int flow_retry_attempts = 1;
  /// When false, `optional: true` sources fail the run like any other
  /// source instead of degrading to an empty table.
  bool degrade_optional_sources = true;
  ConnectorRegistry* connectors = nullptr;
  FormatRegistry* formats = nullptr;
  const SharedTableSource* shared = nullptr;

  /// Shared result cache consulted per flow (null = caching off). A flow
  /// whose CompiledFlow::fingerprint is non-zero looks up (fingerprint,
  /// input-table versions) before executing and stores its output after;
  /// a hit skips execution entirely (counted in ExecutionStats::
  /// flows_cached, byte-identical by operator purity). Invalidation is
  /// automatic: reloaded/republished/appended inputs are new Table
  /// instances with new versions, so stale entries never match. Typically
  /// &ResultCache::Process().
  ResultCache* result_cache = nullptr;

  /// Cooperative cancellation for the whole run. Checked between source
  /// loads, before every task of every flow (DAG-node boundary), and
  /// between operator morsels (via ExecContext), so a fired token aborts
  /// the run with kCancelled within one morsel's latency. Arm a deadline
  /// on the token to bound the run's wall clock. Null = uncancellable.
  CancellationToken* cancel = nullptr;
  /// Per-query memory cap in bytes (0 = none). When set, the run charges
  /// operator materializations against a dedicated "query" budget
  /// parented to MemoryBudget::Process(); exceeding it fails the flow
  /// with kResourceExhausted naming the operator instead of OOM-killing
  /// the process. When unset, materializations still charge the process
  /// budget (accounting, and any process-wide cap).
  size_t mem_budget_bytes = 0;
  /// When true (the default), a refused materialization reservation in a
  /// spill-capable operator (group-by, join, sort/distinct/limit/top-n
  /// gathers) degrades to compressed on-disk spill partitions that are
  /// stream-merged back in order — the run completes, slower, with
  /// ExecutionStats::spills > 0 and outputs identical to an unbudgeted
  /// run. When false, an over-budget materialization keeps the hard-fail
  /// contract: kResourceExhausted naming the operator.
  bool enable_spill = true;
  /// Directory for spill partition files (empty = the system temp dir).
  /// Each run creates its own scratch subdirectory and removes it — and
  /// any partitions still inside — on completion, error, or cancel.
  std::string spill_dir;
  /// Target rows per spill partition. 0 = adaptive: the first chunk of
  /// a run uses kDefaultSpillChunkRows, later ones are sized from the
  /// observed encoded row width toward kTargetSpillChunkBytes per
  /// partition (clamped to [kMinSpillChunkRows, kMaxSpillChunkRows]).
  /// An explicit value is used verbatim. The actual staging charge
  /// additionally shrinks to what the budget has free, so this only
  /// caps partition granularity.
  size_t spill_chunk_rows = 0;

  /// When set, the run records hierarchical spans — exec.run with
  /// per-stage children (load_sources / resolve_shared / flows /
  /// endpoints), one span per executed flow, and one per operator with
  /// rows-in/rows-out — nested under `trace_parent`. The run also feeds
  /// the runs_/flows_/rows_ metrics in MetricsRegistry::Default()
  /// regardless of tracing. Null tracer = no span overhead.
  Tracer* tracer = nullptr;
  SpanId trace_parent = 0;
};

/// Carry-over state for a stream of ExecuteAppend calls against one
/// (plan, store) pair: persistent operator accumulators (live group-by
/// state) keyed by (flow index, op index). Opaque to callers; reset
/// automatically when the plan shape changes, or explicitly via Clear()
/// (always safe — the next append re-seeds from the store, trading one
/// O(base) scan for correctness).
class IncrementalState {
 public:
  void Clear() {
    op_states.clear();
    flow_tags.clear();
  }

 private:
  friend class Executor;
  std::map<std::pair<size_t, size_t>, OperatorStatePtr> op_states;
  /// CompiledFlow::ToString() per flow at seed time; a mismatch means the
  /// plan was recompiled and every accumulator is stale.
  std::vector<std::string> flow_tags;
};

/// What one ExecuteAppend changed, for the publication layer: objects
/// with an append-only delta (subscribers can patch incrementally) vs
/// objects rewritten wholesale (subscribers must refetch).
struct AppendOutcome {
  ExecutionStats stats;
  /// Object -> the appended rows (output deltas for pass-through flows,
  /// the input batch for the appended object itself).
  std::map<std::string, TablePtr> deltas;
  /// Objects replaced without an append-only delta (accumulating or
  /// fully re-run flows).
  std::set<std::string> full_changed;
  /// Object -> the Table::version() it had before this append replaced
  /// it (its subscribers' resume cursor).
  std::map<std::string, uint64_t> prev_versions;
};

/// Suffix of the side table holding rows a source's parse quarantined
/// (`error_policy: quarantine`): source `events` materializes rejected
/// rows as `events__quarantine` (columns row/reason/raw).
inline constexpr const char* kQuarantineSuffix = "__quarantine";

/// Runs ExecutionPlans against a DataStore: loads sources, schedules
/// flows respecting DAG dependencies (independent flows run concurrently
/// on a thread pool), and materializes every data object.
///
/// Fault tolerance (docs/ROBUSTNESS.md): source loads run under each
/// object's `retry.*` policy inside LoadDataObject; sources marked
/// `optional: true` that still fail degrade to an empty-but-typed table
/// instead of aborting the run; flows hit by transient failures (the
/// `exec.node` injection site) are re-run up to
/// ExecuteOptions::flow_retry_attempts times. All of it is accounted in
/// ExecutionStats and the io_retries_total / flow_retries_total /
/// sources_degraded_total / rows_quarantined_total metrics.
class Executor {
 public:
  explicit Executor(ExecuteOptions options = {});

  /// Full run: (re)loads every source and executes every flow.
  Result<ExecutionStats> Execute(const ExecutionPlan& plan, DataStore* store);

  /// Incremental run: `dirty` names the data objects whose content or
  /// definition changed (edited sources, modified upstream flows). Only
  /// flows transitively downstream of a dirty object — or whose outputs
  /// are missing from the store — re-run; everything else is reused.
  /// This is what makes the edit-run loop of flow-file groups fast
  /// (section 4.5.3, benefits 3 and 4).
  Result<ExecutionStats> ExecuteIncremental(const ExecutionPlan& plan,
                                            DataStore* store,
                                            const std::set<std::string>& dirty);

  /// Streaming append: `delta_rows` (same schema as the materialized
  /// `object`) is concatenated onto the object encoding-preservingly, and
  /// the change propagates ALONG the flow DAG as deltas — pass-through
  /// operators (filter/project/map, probe-side joins) execute only the
  /// appended rows and their outputs are concatenated onto the previous
  /// results; accumulating operators (group-by) absorb the rows into
  /// persistent state carried in `state` and re-emit; anything else falls
  /// back to a full re-run of that flow. Results are byte-identical to
  /// Execute() over the grown inputs (the delta-equivalence suite checks
  /// this oracle). Deltas charge the memory budget ("append:delta",
  /// "append:concat"; retained accumulator state is only checked,
  /// "append:state") and probe the cancellation token like any morsel.
  /// Replaced table versions are precisely invalidated in the result
  /// cache and fresh outputs inserted under their new input versions.
  /// `state` may be null (group-bys then re-run fully each append); when
  /// provided it must be used with this plan/store pair only.
  Result<AppendOutcome> ExecuteAppend(const ExecutionPlan& plan,
                                      DataStore* store,
                                      const std::string& object,
                                      const TablePtr& delta_rows,
                                      IncrementalState* state);

 private:
  /// What one call sets up once and shares across its flows: the thread
  /// pool, memory budget and spill area, the task step, the flow runner
  /// and the failure tail. Defined in executor.cc.
  class Env;

  Result<ExecutionStats> Run(const ExecutionPlan& plan, DataStore* store,
                             const std::set<std::string>* dirty);
  /// The bodies of Run and ExecuteAppend; their callers route every
  /// error through Env's failure tail.
  Status RunPlan(const ExecutionPlan& plan, DataStore* store,
                 const std::set<std::string>* dirty, Env& env,
                 ExecutionStats* stats);
  Status ApplyAppend(const ExecutionPlan& plan, DataStore* store,
                     const std::string& object, const TablePtr& delta_rows,
                     IncrementalState* inc, Env& env, AppendOutcome* outcome);

  ExecuteOptions options_;
};

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_EXEC_EXECUTOR_H_
