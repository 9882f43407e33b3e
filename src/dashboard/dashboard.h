#ifndef SHAREINSIGHTS_DASHBOARD_DASHBOARD_H_
#define SHAREINSIGHTS_DASHBOARD_DASHBOARD_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "compile/compiler.h"
#include "cube/data_cube.h"
#include "cube/shared_scan.h"
#include "dashboard/widget.h"
#include "exec/executor.h"
#include "flow/flow_file.h"

namespace shareinsights {

class DurabilityManager;

/// A running dashboard instance: the compiled flow file, its
/// materialized data store, per-endpoint data cubes, widget selection
/// state, and the interaction machinery that re-evaluates widget flows
/// when selections change.
///
/// This is the headless equivalent of the paper's generated single-page
/// dashboard: widget data is computed exactly as specified by the W/T
/// sections, without a browser.
class Dashboard {
 public:
  struct Options {
    std::string base_dir;
    const SharedSchemaSource* shared_schemas = nullptr;
    const SharedTableSource* shared_tables = nullptr;
    size_t num_threads = 0;
    bool optimize = true;
    /// When true, widget flows that fit the cube's query shape run on the
    /// per-endpoint DataCube; otherwise they run through the operators
    /// directly. Exposed for the cube-vs-ops ablation bench.
    bool use_cube = true;
    AggregateRegistry* aggregates = nullptr;
    ScalarOpRegistry* scalars = nullptr;
    ConnectorRegistry* connectors = nullptr;
    FormatRegistry* formats = nullptr;
    /// Total attempts per flow on transient failures (see
    /// ExecuteOptions::flow_retry_attempts).
    int flow_retry_attempts = 1;
    /// Target rows per operator morsel (0 = kDefaultMorselRows). Smaller
    /// morsels tighten the cooperative-cancellation latency at the cost
    /// of scheduling overhead. For a fixed value, output is identical
    /// across thread counts; double aggregates may differ in their low
    /// bits across values (see ExecuteOptions::morsel_rows).
    size_t morsel_rows = 0;
    /// Memory cap in bytes for this dashboard's runs and interactive
    /// queries (0 = none; materializations still charge the process
    /// budget). See ExecuteOptions::mem_budget_bytes.
    size_t mem_budget_bytes = 0;
    /// When true, over-budget materializations in this dashboard's runs
    /// spill to compressed on-disk partitions and complete instead of
    /// failing. See ExecuteOptions::enable_spill.
    bool enable_spill = true;
    /// Directory for spill partitions (empty = system temp dir).
    std::string spill_dir;
    /// Observability sink for this dashboard: compile-phase spans at
    /// Create() time, run/cube spans for Run() and widget evaluation.
    /// Run(Tracer*) overrides it per run (the API server passes a fresh
    /// tracer per /run request).
    Tracer* tracer = nullptr;
    /// Shared result cache (null = caching off). Wired into every
    /// Run/RunIncremental (flow-level memoization, see
    /// ExecuteOptions::result_cache) and into the per-endpoint
    /// SharedScanBatchers (cube-query memoization). Typically
    /// &ResultCache::Process() so dashboards share one cache.
    ResultCache* result_cache = nullptr;
    /// Durable object store (null = durability off). Every append cycle
    /// is write-ahead logged under `durability_name` before it is
    /// acknowledged, batch runs snapshot the materialized store, and a
    /// read-only durable store rejects appends with kUnavailable.
    DurabilityManager* durability = nullptr;
    /// Name this dashboard's WAL/snapshots are filed under (the API
    /// server's dashboard name).
    std::string durability_name;
  };

  /// Compiles the flow file (validating widgets, layout, and interaction
  /// flows against propagated schemas) without executing anything.
  static Result<std::unique_ptr<Dashboard>> Create(FlowFile file,
                                                   Options options);

  /// Create with default options.
  static Result<std::unique_ptr<Dashboard>> Create(FlowFile file) {
    return Create(std::move(file), Options());
  }

  /// Executes the batch plan: loads sources, runs every flow, builds the
  /// endpoint cubes, and applies default widget selections.
  Result<ExecutionStats> Run() { return Run(options_.tracer); }

  /// Run with an explicit tracer (overrides Options::tracer for this
  /// run). Records a dashboard.run root span with the executor's and
  /// cube-build spans nested below. A non-null `cancel` token makes the
  /// run cooperatively cancellable (see ExecuteOptions::cancel): fired
  /// mid-run, the executor aborts with kCancelled within one morsel's
  /// latency.
  Result<ExecutionStats> Run(Tracer* tracer,
                             CancellationToken* cancel = nullptr);

  /// Incremental re-run after `dirty` data objects changed.
  Result<ExecutionStats> RunIncremental(const std::set<std::string>& dirty);

  /// Recovery-only (crash restart): installs recovered object states
  /// directly into the store — versions already restamped — then builds
  /// cubes and default selections as if Run() had produced them. Nothing
  /// is logged or snapshotted; the recovered dashboard serves reads and
  /// accepts appends exactly where the pre-crash one left off.
  Status RestoreObjects(const std::map<std::string, TablePtr>& objects);

  // --- streaming appends ----------------------------------------------

  /// What one append did: the object's new version (its grown table's
  /// Table::version(), which doubles as the API ETag), the delta each
  /// downstream object received when delta maintenance applied, and the
  /// objects that had to be fully re-derived instead.
  struct AppendResult {
    /// New version of the appended object after the grow.
    uint64_t version = 0;
    size_t rows_appended = 0;
    ExecutionStats stats;
    /// object name -> appended rows, for every object (the target and
    /// downstream outputs) maintained via the delta path. The caller
    /// forwards these to SharedDataRegistry::PublishAppend so
    /// subscribers patch instead of refetch.
    std::map<std::string, TablePtr> deltas;
    /// Objects rewritten by a full re-run (non-incrementalizable flows);
    /// subscribers of these must refetch.
    std::set<std::string> full_changed;
    /// Object -> version it had before this append (subscriber cursors).
    std::map<std::string, uint64_t> prev_versions;
  };

  /// Appends JSON-shaped rows (row-major Values, coerced to the object's
  /// schema) to a materialized data object and incrementally maintains
  /// everything downstream: delta-capable flows absorb just the delta
  /// (Executor::ExecuteAppend), endpoint cubes are copy-extended via
  /// DataCube::Append, and widget/result caches stay precise. Appends
  /// are serialized per dashboard; `expected_version` non-zero asserts
  /// optimistic concurrency (kConflict when the object moved — the API
  /// layer's 412).
  Result<AppendResult> AppendToObject(const std::string& object,
                                      const std::vector<std::vector<Value>>& rows,
                                      uint64_t expected_version = 0);

  /// Same, with an already-typed delta batch (e.g. from LoadAppendBatch).
  Result<AppendResult> AppendDelta(const std::string& object, TablePtr delta,
                                   uint64_t expected_version = 0);

  // --- widget selection (interaction) ---------------------------------

  /// Sets the selection of a selection-capable widget (e.g. clicking a
  /// bubble, picking list entries). Values bind to the widget's primary
  /// data attribute.
  Status Select(const std::string& widget, std::vector<Value> values);

  /// Sets a range selection (sliders / date sliders).
  Status SelectRange(const std::string& widget, Value lo, Value hi);

  /// Clears a widget's selection (back to "no constraint").
  Status ClearSelection(const std::string& widget);

  // --- data access -----------------------------------------------------

  /// Evaluates a widget's source flow under the current selections and
  /// returns the data the widget renders.
  Result<TablePtr> WidgetData(const std::string& widget);

  /// Materialized endpoint data object (post-batch).
  Result<TablePtr> EndpointData(const std::string& name) const;

  /// An interactive cube query answered with full sharing machinery.
  struct CubeQueryResult {
    TablePtr table;
    /// True when the result came from the result cache (no scan ran).
    bool cache_hit = false;
  };

  /// Runs `query` against the endpoint's DataCube through its
  /// SharedScanBatcher: cached results are served without scanning, and
  /// concurrent callers with coinciding filter sets share one scan. This
  /// is the entry point the /api/v1 ad-hoc dataset route lowers eligible
  /// queries onto. Fails kNotFound when the endpoint has no cube (not an
  /// endpoint, not materialized, or Options::use_cube is false).
  Result<CubeQueryResult> CubeQuery(const std::string& endpoint,
                                    const DataCube::Query& query);

  /// Re-evaluates every data-bearing widget; returns name -> data.
  Result<std::map<std::string, TablePtr>> RefreshAll();

  /// Widgets whose data depends (via filter_source) on `widget`'s
  /// selection — the set a UI would repaint after an interaction.
  std::vector<std::string> Dependents(const std::string& widget) const;

  /// Rendering constraints from the client environment — §4.1: "the
  /// generated output needs to be cognizant of the operating environment
  /// settings (constraints) such as screen resolution and client
  /// computing resources".
  struct RenderOptions {
    /// Terminal columns. Below 80, layout rows are stacked one cell per
    /// line (the mobile form factor) and previews shrink.
    int screen_columns = 120;
    /// Rows of data shown per widget (scaled down on narrow screens).
    size_t preview_rows = 5;
    /// Low-powered client: interaction flows run through the batch
    /// operators instead of building cubes ("JavaScript ... in the worst
    /// case even turned off").
    bool low_power = false;
  };

  /// Renders the dashboard as text: layout grid plus a type-appropriate
  /// ASCII view of each widget's current data (the data explorer's
  /// "headless mode").
  Result<std::string> RenderText() { return RenderText(RenderOptions()); }
  Result<std::string> RenderText(const RenderOptions& options);

  const FlowFile& flow_file() const { return file_; }
  const ExecutionPlan& plan() const { return plan_; }
  const DataStore& store() const { return store_; }
  DataStore* mutable_store() { return &store_; }

  /// Context for interactive evaluation (widget flows, cube queries, the
  /// REST explore routes): a lazily-created pool sized by
  /// Options::num_threads plus the dashboard's tracer. Operators split
  /// their row loops over this pool; results are byte-identical to
  /// single-threaded evaluation.
  ExecContext exec_context() const;

  /// Count of widget-flow evaluations answered by a DataCube vs by
  /// direct operator execution (ablation telemetry).
  int cube_hits() const { return cube_hits_; }
  int ops_fallbacks() const { return ops_fallbacks_; }

 private:
  class SelectionResolver;

  Dashboard(FlowFile file, Options options)
      : file_(std::move(file)), options_(std::move(options)) {}

  Status Compile();
  Status ValidateWidgets();
  Status ApplyDefaultSelections();
  Status RebuildCubes(Tracer* tracer, SpanId trace_parent);

  /// The executor knobs every run of this dashboard shares, traced under
  /// `trace_parent`. Only Run passes a cancellation token.
  ExecuteOptions MakeExecuteOptions(Tracer* tracer, SpanId trace_parent,
                                    CancellationToken* cancel = nullptr) const;

  /// Cube maintenance after an append: endpoints that took a delta are
  /// copy-extended (DataCube::Append); fully-rewritten ones rebuild.
  Status RefreshCubesAfterAppend(const AppendOutcome& outcome, Tracer* tracer,
                                 SpanId trace_parent);

  /// Evaluates a widget source chain against its root table.
  Result<TablePtr> EvaluateWidgetFlow(const WidgetDecl& widget);

  /// Tries to lower the widget's task chain onto the root's DataCube.
  /// Returns nullopt when the chain doesn't fit the cube query shape.
  Result<std::optional<TablePtr>> TryCube(const WidgetDecl& widget);

  Result<TablePtr> RootTable(const std::string& name) const;

  FlowFile file_;
  Options options_;
  ExecutionPlan plan_;
  DataStore store_;
  bool ran_ = false;
  // Serializes appends and guards append_state_ (reads of the store from
  // other threads keep working: tables are immutable, Put swaps pointers).
  std::mutex append_mu_;
  // Operator delta state carried across appends (groupby accumulators).
  IncrementalState append_state_;
  // Guards cubes_/batchers_: appends swap entries while interactive
  // queries read them. Held only for map access — cube builds and query
  // execution run outside it (cubes and batchers are immutable /
  // internally synchronized once published).
  mutable std::mutex cube_mu_;
  // Guards the lazy creation of interactive_pool_/interactive_budget_.
  mutable std::mutex exec_init_mu_;
  // Pool for interactive evaluation, created on first exec_context().
  mutable std::unique_ptr<ThreadPool> interactive_pool_;
  // Budget for interactive queries when Options::mem_budget_bytes is set
  // (reservations are transient, so a long-lived budget never fills up).
  mutable std::unique_ptr<MemoryBudget> interactive_budget_;

  // Selection state per widget.
  std::map<std::string, WidgetValueResolver::Selection> selections_;
  // Endpoint cubes (rebuilt after each Run).
  std::map<std::string, std::shared_ptr<const DataCube>> cubes_;
  // Per-endpoint shared-scan batchers over cubes_ (rebuilt alongside).
  std::map<std::string, std::shared_ptr<SharedScanBatcher>> batchers_;
  // widget -> widgets whose flows reference its selection.
  std::map<std::string, std::vector<std::string>> dependents_;

  int cube_hits_ = 0;
  int ops_fallbacks_ = 0;
};

/// Computes the columns each endpoint must retain for the dashboard's
/// widgets (data-attribute bindings plus columns consumed by interaction
/// tasks). Feeds the ProjectEndpoints pass — the "minimize data
/// transfers to the browser" optimization.
std::map<std::string, std::vector<std::string>> ComputeEndpointColumns(
    const FlowFile& file);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_DASHBOARD_DASHBOARD_H_
