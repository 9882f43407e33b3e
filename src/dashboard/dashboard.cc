#include "dashboard/dashboard.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/string_util.h"
#include "compile/fingerprint.h"
#include "compile/optimizer.h"
#include "dashboard/render.h"
#include "expr/expr.h"
#include "store/durability.h"
#include "table/append.h"

namespace shareinsights {

namespace {

// Columns a task consumes from its input, judged from its configuration.
// Conservative over-approximation used for endpoint projection: a column
// is kept when any widget task or binding might touch it.
void CollectTaskColumns(const TaskDecl& task,
                        std::vector<std::string>* out) {
  for (const std::string& c : task.config.GetStringList("filter_by")) {
    out->push_back(c);
  }
  std::string expression = task.config.GetString("filter_expression");
  if (!expression.empty()) {
    Result<ExprPtr> parsed = ParseExpression(expression);
    if (parsed.ok()) (*parsed)->CollectColumns(out);
  }
  for (const std::string& c : task.config.GetStringList("groupby")) {
    out->push_back(c);
  }
  const ConfigNode* aggs = task.config.Find("aggregates");
  if (aggs != nullptr && aggs->is_list()) {
    for (const ConfigNode& item : aggs->items()) {
      std::string apply_on = item.GetString("apply_on");
      if (!apply_on.empty()) out->push_back(apply_on);
    }
  }
  for (const std::string& key_text :
       task.config.GetStringList("orderby_column")) {
    Result<SortKey> key = ParseSortKey(key_text);
    if (key.ok()) out->push_back(key->column);
  }
  for (const std::string& key_text : task.config.GetStringList("orderby")) {
    Result<SortKey> key = ParseSortKey(key_text);
    if (key.ok()) out->push_back(key->column);
  }
  std::string transform = task.config.GetString("transform");
  if (!transform.empty()) out->push_back(transform);
}

// Data-attribute column bindings of one widget (including MapMarker's
// nested marker bindings and tooltip lists).
void CollectWidgetBindings(const WidgetDecl& widget,
                           const WidgetTypeInfo& info,
                           std::vector<std::string>* out) {
  for (const std::string& attr : info.data_attributes) {
    std::string column = widget.config.GetString(attr);
    if (!column.empty()) out->push_back(column);
  }
  for (const std::string& c : widget.config.GetStringList("tooltip_text")) {
    out->push_back(c);
  }
  const ConfigNode* markers = widget.config.Find("markers");
  if (markers != nullptr && markers->is_list()) {
    for (const ConfigNode& item : markers->items()) {
      if (!item.is_map()) continue;
      for (const auto& [name, marker] : item.entries()) {
        if (!marker.is_map()) continue;
        for (const char* attr :
             {"lat_long_value", "markersize", "fill_color"}) {
          std::string column = marker.GetString(attr);
          if (!column.empty()) out->push_back(column);
        }
        for (const std::string& c : marker.GetStringList("tooltip_text")) {
          out->push_back(c);
        }
      }
    }
  }
}

}  // namespace

namespace {

// Task types whose column consumption CollectTaskColumns can introspect
// from configuration. Endpoints touched by any other task type must not
// be projected (a custom task could read columns we cannot see).
bool IsIntrospectableTaskType(const std::string& type) {
  static const char* const kTypes[] = {
      "filter_by", "groupby", "topn",  "orderby", "map",
      "distinct",  "limit",   "union", "project"};
  for (const char* t : kTypes) {
    if (type == t) return true;
  }
  return false;
}

}  // namespace

std::map<std::string, std::vector<std::string>> ComputeEndpointColumns(
    const FlowFile& file) {
  std::map<std::string, std::unordered_set<std::string>> required;
  std::unordered_set<std::string> unprunable;
  for (const WidgetDecl& widget : file.widgets) {
    if (widget.source.root.empty()) continue;
    auto& set = required[widget.source.root];
    Result<WidgetTypeInfo> info =
        WidgetTypeRegistry::Default().Get(widget.type);
    // Widgets that render whole tables (grids, raw HTML) or whose type
    // we don't know consume every column — their endpoint cannot be
    // projected.
    if (!info.ok() || widget.type == "DataGrid" || widget.type == "HTML") {
      unprunable.insert(widget.source.root);
    }
    // Walk tasks in order keeping a running set of columns produced so
    // far: a consumed column counts against the endpoint only when no
    // earlier stage produced it.
    std::unordered_set<std::string> produced;
    auto require = [&](const std::vector<std::string>& columns) {
      for (const std::string& column : columns) {
        if (produced.count(column) == 0) set.insert(column);
      }
    };
    auto record_outputs = [&](const TaskDecl& task) {
      std::string output = task.config.GetString("output");
      if (!output.empty()) produced.insert(output);
      const ConfigNode* aggs = task.config.Find("aggregates");
      if (aggs != nullptr && aggs->is_list()) {
        for (const ConfigNode& item : aggs->items()) {
          std::string out_field = item.GetString("out_field");
          if (!out_field.empty()) produced.insert(out_field);
        }
      }
      if (task.type == "groupby" && aggs == nullptr) {
        produced.insert("count");  // bare groupby synthesizes `count`
      }
    };
    for (const std::string& task_name : widget.source.tasks) {
      const TaskDecl* task = file.FindTask(task_name);
      if (task == nullptr) continue;
      if (!IsIntrospectableTaskType(task->type) &&
          task->type != "parallel") {
        unprunable.insert(widget.source.root);
      }
      std::vector<std::string> consumed;
      CollectTaskColumns(*task, &consumed);
      require(consumed);
      if (task->type == "parallel") {
        for (const std::string& member :
             task->config.GetStringList("parallel")) {
          std::string name = StartsWith(member, "T.") ? member.substr(2)
                                                      : member;
          const TaskDecl* m = file.FindTask(Trim(name));
          if (m == nullptr) continue;
          if (!IsIntrospectableTaskType(m->type)) {
            unprunable.insert(widget.source.root);
          }
          std::vector<std::string> member_consumed;
          CollectTaskColumns(*m, &member_consumed);
          require(member_consumed);
          record_outputs(*m);
        }
      }
      record_outputs(*task);
    }
    // Data-attribute bindings refer to the final stage's schema.
    std::vector<std::string> bindings;
    if (info.ok()) CollectWidgetBindings(widget, *info, &bindings);
    require(bindings);
  }
  std::map<std::string, std::vector<std::string>> out;
  for (auto& [endpoint, set] : required) {
    if (unprunable.count(endpoint) > 0) continue;
    out[endpoint] = std::vector<std::string>(set.begin(), set.end());
    std::sort(out[endpoint].begin(), out[endpoint].end());
  }
  return out;
}

// ---------------------------------------------------------------------
// SelectionResolver
// ---------------------------------------------------------------------

class Dashboard::SelectionResolver : public WidgetValueResolver {
 public:
  explicit SelectionResolver(const Dashboard* dashboard)
      : dashboard_(dashboard) {}

  Result<Selection> Resolve(const std::string& widget_name,
                            const std::string& widget_column) override {
    (void)widget_column;  // values bind to the widget's primary attribute
    const WidgetDecl* widget = dashboard_->file_.FindWidget(widget_name);
    if (widget == nullptr) {
      return Status::NotFound("interaction flow references unknown widget '" +
                              widget_name + "'");
    }
    SI_ASSIGN_OR_RETURN(WidgetTypeInfo info,
                        WidgetTypeRegistry::Default().Get(widget->type));
    if (!info.supports_selection) {
      return Status::InvalidArgument("widget '" + widget_name + "' (type " +
                                     widget->type +
                                     ") does not support selection");
    }
    auto it = dashboard_->selections_.find(widget_name);
    if (it == dashboard_->selections_.end()) {
      Selection none;
      none.is_range = info.is_range_selector;
      return none;
    }
    return it->second;
  }

 private:
  const Dashboard* dashboard_;
};

// ---------------------------------------------------------------------
// Creation / compilation
// ---------------------------------------------------------------------

Result<std::unique_ptr<Dashboard>> Dashboard::Create(FlowFile file,
                                                     Options options) {
  std::unique_ptr<Dashboard> dashboard(
      new Dashboard(std::move(file), std::move(options)));
  SI_RETURN_IF_ERROR(dashboard->Compile());
  return dashboard;
}

Status Dashboard::Compile() {
  CompileOptions compile_options;
  compile_options.base_dir = options_.base_dir;
  compile_options.shared = options_.shared_schemas;
  compile_options.optimize = options_.optimize;
  compile_options.aggregates = options_.aggregates;
  compile_options.scalars = options_.scalars;
  compile_options.tracer = options_.tracer;
  SI_ASSIGN_OR_RETURN(plan_, CompileFlowFile(file_, compile_options));

  // Widgets type-check against the full endpoint schemas, so endpoints
  // are projected down to what widgets consume only afterwards. The
  // projected chains need fresh fingerprints, or they would share
  // result-cache entries with unprojected ones.
  SI_RETURN_IF_ERROR(ValidateWidgets());
  if (options_.optimize) {
    SI_RETURN_IF_ERROR(
        ProjectEndpoints(&plan_, ComputeEndpointColumns(file_)));
    ComputePlanFingerprints(&plan_);
  }
  return Status::OK();
}

Result<TablePtr> Dashboard::RootTable(const std::string& name) const {
  Result<TablePtr> local = store_.Get(name);
  if (local.ok()) return local;
  if (options_.shared_tables != nullptr) {
    Result<TablePtr> shared = options_.shared_tables->SharedTable(name);
    if (shared.ok()) return shared;
  }
  return Status::NotFound("widget source data object '" + name +
                          "' is not materialized (did you call Run()?)");
}

Status Dashboard::ValidateWidgets() {
  WidgetTypeRegistry& registry = WidgetTypeRegistry::Default();
  SelectionResolver resolver(this);

  // Dependency edges for interaction propagation.
  dependents_.clear();

  for (const WidgetDecl& widget : file_.widgets) {
    SI_ASSIGN_OR_RETURN(WidgetTypeInfo info, registry.Get(widget.type));

    if (info.is_container) {
      // Containers reference other widgets via rows/tabs.
      const ConfigNode* rows = widget.config.Find("rows");
      if (rows != nullptr) {
        SI_ASSIGN_OR_RETURN(auto parsed, ParseLayoutRows(*rows));
        for (const auto& row : parsed) {
          for (const LayoutCell& cell : row) {
            if (file_.FindWidget(cell.widget) == nullptr) {
              return Status::NotFound("layout widget '" + widget.name +
                                      "' references unknown widget '" +
                                      cell.widget + "'");
            }
          }
        }
      }
      const ConfigNode* tabs = widget.config.Find("tabs");
      if (tabs != nullptr && tabs->is_list()) {
        for (const ConfigNode& tab : tabs->items()) {
          std::string body = tab.GetString("body");
          if (!body.empty()) {
            std::string name = StartsWith(body, "W.") ? body.substr(2) : body;
            if (file_.FindWidget(name) == nullptr) {
              return Status::NotFound("tab layout '" + widget.name +
                                      "' references unknown widget '" + name +
                                      "'");
            }
          }
        }
      }
      continue;
    }

    if (widget.source.IsStatic()) {
      if (!widget.source.static_values.empty()) continue;
      // Widgets without any source carry no data (e.g. custom HTML).
      continue;
    }

    // Resolve root schema.
    auto schema_it = plan_.schemas.find(widget.source.root);
    Schema root_schema;
    if (schema_it != plan_.schemas.end()) {
      root_schema = schema_it->second;
    } else if (options_.shared_schemas != nullptr) {
      std::optional<Schema> shared =
          options_.shared_schemas->SharedSchema(widget.source.root);
      if (!shared.has_value()) {
        return Status::NotFound("widget '" + widget.name +
                                "' sources unknown data object '" +
                                widget.source.root + "'");
      }
      root_schema = *shared;
      plan_.schemas[widget.source.root] = root_schema;
      plan_.shared_inputs.insert(widget.source.root);
    } else {
      return Status::NotFound("widget '" + widget.name +
                              "' sources unknown data object '" +
                              widget.source.root + "'");
    }

    // Type-check the interaction flow and record dependency edges.
    TaskBindContext context;
    context.input_names = {widget.source.root};
    context.base_dir = options_.base_dir;
    context.widgets = &resolver;
    context.aggregates = options_.aggregates;
    context.scalars = options_.scalars;
    Schema current = root_schema;
    for (const std::string& task_name : widget.source.tasks) {
      const TaskDecl* task = file_.FindTask(task_name);
      if (task == nullptr) {
        return Status::NotFound("widget '" + widget.name +
                                "' references unknown task '" + task_name +
                                "'");
      }
      std::string filter_source = task->config.GetString("filter_source");
      if (StartsWith(filter_source, "W.")) {
        std::string upstream = filter_source.substr(2);
        if (file_.FindWidget(upstream) == nullptr) {
          return Status::NotFound("task '" + task_name +
                                  "' filters on unknown widget '" + upstream +
                                  "'");
        }
        dependents_[upstream].push_back(widget.name);
      }
      SI_ASSIGN_OR_RETURN(TableOperatorPtr op,
                          BuildTask(*task, file_, context));
      Result<Schema> next = op->OutputSchema({current});
      if (!next.ok()) {
        return next.status().WithContext("while checking widget '" +
                                         widget.name + "' task '" +
                                         task_name + "'");
      }
      current = std::move(*next);
    }

    // Data attribute bindings must resolve in the final schema.
    std::vector<std::string> bindings;
    CollectWidgetBindings(widget, info, &bindings);
    for (const std::string& column : bindings) {
      if (!current.Contains(column)) {
        return Status::SchemaError(
            "widget '" + widget.name + "' binds attribute to column '" +
            column + "' which is absent from its source data (" +
            current.ToString() + ")");
      }
    }
  }

  // Layout cells must reference declared widgets.
  for (const auto& row : file_.layout.rows) {
    for (const LayoutCell& cell : row) {
      if (file_.FindWidget(cell.widget) == nullptr) {
        return Status::NotFound("layout references unknown widget '" +
                                cell.widget + "'");
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

ExecContext Dashboard::exec_context() const {
  std::lock_guard<std::mutex> lock(exec_init_mu_);
  if (interactive_pool_ == nullptr) {
    size_t threads = options_.num_threads;
    if (threads == 0) {
      threads = std::max<size_t>(1, std::thread::hardware_concurrency());
    }
    interactive_pool_ = std::make_unique<ThreadPool>(threads);
  }
  ExecContext ctx;
  // A 1-thread pool has no helpers; skip the scheduling overhead.
  if (interactive_pool_->num_threads() > 1) {
    ctx.pool = interactive_pool_.get();
  }
  if (options_.morsel_rows > 0) ctx.morsel_rows = options_.morsel_rows;
  if (options_.mem_budget_bytes > 0) {
    if (interactive_budget_ == nullptr) {
      interactive_budget_ = std::make_unique<MemoryBudget>(
          "dashboard", options_.mem_budget_bytes, &MemoryBudget::Process());
    }
    ctx.budget = interactive_budget_.get();
  } else {
    ctx.budget = &MemoryBudget::Process();
  }
  ctx.tracer = options_.tracer;
  return ctx;
}

ExecuteOptions Dashboard::MakeExecuteOptions(Tracer* tracer,
                                             SpanId trace_parent,
                                             CancellationToken* cancel) const {
  ExecuteOptions exec_options;
  exec_options.num_threads = options_.num_threads;
  exec_options.base_dir = options_.base_dir;
  exec_options.shared = options_.shared_tables;
  exec_options.connectors = options_.connectors;
  exec_options.formats = options_.formats;
  exec_options.flow_retry_attempts = options_.flow_retry_attempts;
  exec_options.morsel_rows = options_.morsel_rows;
  exec_options.mem_budget_bytes = options_.mem_budget_bytes;
  exec_options.enable_spill = options_.enable_spill;
  exec_options.spill_dir = options_.spill_dir;
  exec_options.result_cache = options_.result_cache;
  exec_options.cancel = cancel;
  exec_options.tracer = tracer;
  exec_options.trace_parent = trace_parent;
  return exec_options;
}

Result<ExecutionStats> Dashboard::Run(Tracer* tracer,
                                      CancellationToken* cancel) {
  ScopedSpan run_span(tracer, "dashboard.run");
  Executor executor(MakeExecuteOptions(tracer, run_span.id(), cancel));
  SI_ASSIGN_OR_RETURN(ExecutionStats stats, executor.Execute(plan_, &store_));
  SI_RETURN_IF_ERROR(RebuildCubes(tracer, run_span.id()));
  if (!ran_) {
    SI_RETURN_IF_ERROR(ApplyDefaultSelections());
    ran_ = true;
  }
  if (options_.durability != nullptr && !options_.durability->read_only()) {
    // Snapshot the freshly materialized store so a crash right after the
    // run recovers it without replay. A snapshot failure flips the store
    // read-only (recorded there); the run itself still succeeded.
    std::map<std::string, TablePtr> objects;
    for (const std::string& name : store_.Names()) {
      Result<TablePtr> table = store_.Get(name);
      if (table.ok()) objects[name] = std::move(*table);
    }
    Status snapped =
        options_.durability->SnapshotDashboard(options_.durability_name,
                                               objects);
    (void)snapped;
  }
  return stats;
}

Result<ExecutionStats> Dashboard::RunIncremental(
    const std::set<std::string>& dirty) {
  Tracer* tracer = options_.tracer;
  ScopedSpan run_span(tracer, "dashboard.run_incremental");
  Executor executor(MakeExecuteOptions(tracer, run_span.id()));
  SI_ASSIGN_OR_RETURN(ExecutionStats stats,
                      executor.ExecuteIncremental(plan_, &store_, dirty));
  SI_RETURN_IF_ERROR(RebuildCubes(tracer, run_span.id()));
  return stats;
}

Result<Dashboard::AppendResult> Dashboard::AppendToObject(
    const std::string& object, const std::vector<std::vector<Value>>& rows,
    uint64_t expected_version) {
  Result<TablePtr> base = store_.Get(object);
  if (!base.ok()) {
    return base.status().WithContext("appending to '" + object +
                                     "' (run the dashboard first)");
  }
  SI_ASSIGN_OR_RETURN(TablePtr delta, MakeAppendBatch(**base, rows));
  return AppendDelta(object, std::move(delta), expected_version);
}

Result<Dashboard::AppendResult> Dashboard::AppendDelta(
    const std::string& object, TablePtr delta, uint64_t expected_version) {
  std::lock_guard<std::mutex> lock(append_mu_);
  if (options_.durability != nullptr && options_.durability->read_only()) {
    return Status::Unavailable("durable store is read-only: " +
                               options_.durability->read_only_reason());
  }
  Result<TablePtr> base = store_.Get(object);
  if (!base.ok()) {
    return base.status().WithContext("appending to '" + object +
                                     "' (run the dashboard first)");
  }
  if (expected_version != 0 && (*base)->version() != expected_version) {
    return Status::Conflict(
        "object '" + object + "' is at version " +
        std::to_string((*base)->version()) + ", not the expected " +
        std::to_string(expected_version));
  }

  Tracer* tracer = options_.tracer;
  ScopedSpan run_span(tracer, "dashboard.append");
  run_span.AddAttribute("object", object);
  Executor executor(MakeExecuteOptions(tracer, run_span.id()));
  size_t rows_appended = delta->num_rows();
  SI_ASSIGN_OR_RETURN(
      AppendOutcome outcome,
      executor.ExecuteAppend(plan_, &store_, object, delta, &append_state_));
  SI_RETURN_IF_ERROR(
      RefreshCubesAfterAppend(outcome, tracer, run_span.id()));

  AppendResult result;
  SI_ASSIGN_OR_RETURN(TablePtr grown, store_.Get(object));
  result.version = grown->version();
  result.rows_appended = rows_appended;
  result.stats = std::move(outcome.stats);
  result.deltas = std::move(outcome.deltas);
  result.full_changed = std::move(outcome.full_changed);
  result.prev_versions = std::move(outcome.prev_versions);

  if (options_.durability != nullptr) {
    std::vector<DurabilityManager::LoggedChange> changes;
    for (const auto& [name, obj_delta] : result.deltas) {
      Result<TablePtr> table = store_.Get(name);
      if (!table.ok()) continue;
      DurabilityManager::LoggedChange change;
      change.object = name;
      change.table = std::move(*table);
      change.delta = obj_delta;
      change.version = change.table->version();
      auto prev = result.prev_versions.find(name);
      change.prev_version =
          prev != result.prev_versions.end() ? prev->second : 0;
      changes.push_back(std::move(change));
    }
    for (const std::string& name : result.full_changed) {
      if (result.deltas.count(name) > 0) continue;
      Result<TablePtr> table = store_.Get(name);
      if (!table.ok()) continue;
      DurabilityManager::LoggedChange change;
      change.object = name;
      change.table = std::move(*table);
      change.version = change.table->version();
      auto prev = result.prev_versions.find(name);
      change.prev_version =
          prev != result.prev_versions.end() ? prev->second : 0;
      changes.push_back(std::move(change));
    }
    Status logged = options_.durability->LogAppendCycle(
        options_.durability_name, changes);
    if (!logged.ok()) {
      // The in-memory state advanced, but the cycle was never committed
      // durably and the store is now read-only (no further appends), so
      // the durable state stays a consistent committed prefix — this
      // unacknowledged append is what recovery would lose.
      return Status::Unavailable(
          "append applied in memory but could not be made durable: " +
          logged.message());
    }
    if (options_.durability->ShouldSnapshot(options_.durability_name)) {
      std::map<std::string, TablePtr> objects;
      for (const std::string& name : store_.Names()) {
        Result<TablePtr> table = store_.Get(name);
        if (table.ok()) objects[name] = std::move(*table);
      }
      Status snapped = options_.durability->SnapshotDashboard(
          options_.durability_name, objects);
      (void)snapped;  // failure is recorded as read-only by the manager
    }
  }
  return result;
}

Status Dashboard::RestoreObjects(
    const std::map<std::string, TablePtr>& objects) {
  std::lock_guard<std::mutex> lock(append_mu_);
  for (const auto& [name, table] : objects) {
    store_.Put(name, table);
  }
  Tracer* tracer = options_.tracer;
  ScopedSpan restore_span(tracer, "dashboard.restore");
  SI_RETURN_IF_ERROR(RebuildCubes(tracer, restore_span.id()));
  if (!ran_) {
    SI_RETURN_IF_ERROR(ApplyDefaultSelections());
    ran_ = true;
  }
  return Status::OK();
}

Status Dashboard::RefreshCubesAfterAppend(const AppendOutcome& outcome,
                                          Tracer* tracer,
                                          SpanId trace_parent) {
  if (!options_.use_cube) return Status::OK();
  ScopedSpan refresh_span(tracer, "cube.append_refresh", trace_parent);
  for (const std::string& endpoint : plan_.endpoints) {
    Result<TablePtr> table = store_.Get(endpoint);
    if (!table.ok()) continue;
    std::shared_ptr<const DataCube> prev;
    {
      std::lock_guard<std::mutex> lock(cube_mu_);
      auto it = cubes_.find(endpoint);
      if (it != cubes_.end()) prev = it->second;
    }
    if (prev != nullptr && prev->table() == *table) {
      continue;  // untouched by this append
    }
    std::shared_ptr<const DataCube> cube;
    // Copy-extend when this endpoint took the delta path and the cube
    // still covers the pre-append prefix; otherwise a cold rebuild.
    if (prev != nullptr && outcome.deltas.count(endpoint) > 0 &&
        prev->table()->num_rows() <= (*table)->num_rows()) {
      ScopedSpan span(tracer, "cube.append:" + endpoint, refresh_span.id());
      span.AddAttribute(
          "rows_appended",
          static_cast<int64_t>((*table)->num_rows() -
                               prev->table()->num_rows()));
      SI_ASSIGN_OR_RETURN(cube, DataCube::Append(prev, *table));
    } else {
      ScopedSpan span(tracer, "cube.build:" + endpoint, refresh_span.id());
      span.AddAttribute("rows", static_cast<int64_t>((*table)->num_rows()));
      SI_ASSIGN_OR_RETURN(cube, DataCube::Build(*table));
    }
    auto batcher =
        std::make_shared<SharedScanBatcher>(cube, options_.result_cache);
    std::lock_guard<std::mutex> lock(cube_mu_);
    batchers_[endpoint] = std::move(batcher);
    cubes_[endpoint] = std::move(cube);
  }
  return Status::OK();
}

Status Dashboard::RebuildCubes(Tracer* tracer, SpanId trace_parent) {
  if (!options_.use_cube) {
    std::lock_guard<std::mutex> lock(cube_mu_);
    cubes_.clear();
    batchers_.clear();
    return Status::OK();
  }
  ScopedSpan build_span(tracer, "cube.rebuild", trace_parent);
  for (const std::string& endpoint : plan_.endpoints) {
    Result<TablePtr> table = store_.Get(endpoint);
    if (!table.ok()) continue;  // endpoint not materialized (no producer)
    {
      std::lock_guard<std::mutex> lock(cube_mu_);
      if (auto it = cubes_.find(endpoint);
          it != cubes_.end() && it->second->table() == *table) {
        continue;  // same table instance — cube (and cache) still valid
      }
    }
    ScopedSpan endpoint_span(tracer, "cube.build:" + endpoint,
                             build_span.id());
    endpoint_span.AddAttribute("rows",
                               static_cast<int64_t>((*table)->num_rows()));
    SI_ASSIGN_OR_RETURN(auto cube, DataCube::Build(*table));
    // The batcher pins its cube; queries against a replaced endpoint key
    // to the new table version, so stale cache entries never match.
    auto batcher =
        std::make_shared<SharedScanBatcher>(cube, options_.result_cache);
    std::lock_guard<std::mutex> lock(cube_mu_);
    batchers_[endpoint] = std::move(batcher);
    cubes_[endpoint] = std::move(cube);
  }
  return Status::OK();
}

Status Dashboard::ApplyDefaultSelections() {
  for (const WidgetDecl& widget : file_.widgets) {
    Result<WidgetTypeInfo> info =
        WidgetTypeRegistry::Default().Get(widget.type);
    if (!info.ok()) continue;
    // Static range widgets default to their full extent.
    if (info->is_range_selector && widget.source.IsStatic() &&
        widget.source.static_values.size() == 2) {
      WidgetValueResolver::Selection selection;
      selection.is_range = true;
      selection.values = {Value::Infer(widget.source.static_values[0]),
                          Value::Infer(widget.source.static_values[1])};
      selections_[widget.name] = std::move(selection);
      continue;
    }
    // Explicit default selection (fig. 12: default_selection: True).
    if (widget.config.GetBool("default_selection", false)) {
      std::string value = widget.config.GetString("default_selection_value");
      if (!value.empty()) {
        WidgetValueResolver::Selection selection;
        selection.values = {Value::Infer(value)};
        selections_[widget.name] = std::move(selection);
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------

Status Dashboard::Select(const std::string& widget,
                         std::vector<Value> values) {
  const WidgetDecl* decl = file_.FindWidget(widget);
  if (decl == nullptr) {
    return Status::NotFound("no widget named '" + widget + "'");
  }
  SI_ASSIGN_OR_RETURN(WidgetTypeInfo info,
                      WidgetTypeRegistry::Default().Get(decl->type));
  if (!info.supports_selection) {
    return Status::InvalidArgument("widget '" + widget + "' (type " +
                                   decl->type +
                                   ") does not support selection");
  }
  WidgetValueResolver::Selection selection;
  selection.values = std::move(values);
  selection.is_range = false;
  selections_[widget] = std::move(selection);
  return Status::OK();
}

Status Dashboard::SelectRange(const std::string& widget, Value lo, Value hi) {
  const WidgetDecl* decl = file_.FindWidget(widget);
  if (decl == nullptr) {
    return Status::NotFound("no widget named '" + widget + "'");
  }
  SI_ASSIGN_OR_RETURN(WidgetTypeInfo info,
                      WidgetTypeRegistry::Default().Get(decl->type));
  if (!info.supports_selection) {
    return Status::InvalidArgument("widget '" + widget +
                                   "' does not support selection");
  }
  WidgetValueResolver::Selection selection;
  selection.is_range = true;
  selection.values = {std::move(lo), std::move(hi)};
  selections_[widget] = std::move(selection);
  return Status::OK();
}

Status Dashboard::ClearSelection(const std::string& widget) {
  selections_.erase(widget);
  return Status::OK();
}

std::vector<std::string> Dashboard::Dependents(
    const std::string& widget) const {
  auto it = dependents_.find(widget);
  if (it == dependents_.end()) return {};
  return it->second;
}

// ---------------------------------------------------------------------
// Widget evaluation
// ---------------------------------------------------------------------

Result<std::optional<TablePtr>> Dashboard::TryCube(const WidgetDecl& widget) {
  if (!options_.use_cube) return std::optional<TablePtr>{};
  std::shared_ptr<const DataCube> cube;
  std::shared_ptr<SharedScanBatcher> batcher;
  {
    std::lock_guard<std::mutex> lock(cube_mu_);
    auto cube_it = cubes_.find(widget.source.root);
    if (cube_it == cubes_.end()) return std::optional<TablePtr>{};
    cube = cube_it->second;
    auto batcher_it = batchers_.find(widget.source.root);
    if (batcher_it != batchers_.end()) batcher = batcher_it->second;
  }

  SelectionResolver resolver(this);
  DataCube::Query query;
  bool grouped = false;
  for (const std::string& task_name : widget.source.tasks) {
    const TaskDecl* task = file_.FindTask(task_name);
    if (task == nullptr) {
      return Status::NotFound("widget '" + widget.name +
                              "' references unknown task '" + task_name +
                              "'");
    }
    if (task->type == "filter_by") {
      if (grouped) return std::optional<TablePtr>{};  // post-agg filter
      if (!task->config.GetString("filter_expression").empty()) {
        return std::optional<TablePtr>{};
      }
      std::vector<std::string> columns =
          task->config.GetStringList("filter_by");
      std::string source = task->config.GetString("filter_source");
      if (!StartsWith(source, "W.")) return std::optional<TablePtr>{};
      std::vector<std::string> widget_columns =
          task->config.GetStringList("filter_val");
      for (size_t i = 0; i < columns.size(); ++i) {
        std::string widget_column =
            i < widget_columns.size() ? widget_columns[i] : "";
        SI_ASSIGN_OR_RETURN(
            WidgetValueResolver::Selection selection,
            resolver.Resolve(source.substr(2), widget_column));
        query.filters.push_back(DataCube::Filter{
            columns[i], std::move(selection.values), selection.is_range});
      }
      continue;
    }
    if (task->type == "groupby") {
      if (grouped) return std::optional<TablePtr>{};
      grouped = true;
      query.group_by = task->config.GetStringList("groupby");
      const ConfigNode* aggs = task->config.Find("aggregates");
      if (aggs != nullptr && aggs->is_list()) {
        for (const ConfigNode& item : aggs->items()) {
          AggregateSpec spec;
          spec.op = item.GetString("operator");
          spec.apply_on = item.GetString("apply_on");
          spec.out_field = item.GetString("out_field");
          query.aggregates.push_back(std::move(spec));
        }
      }
      query.orderby_aggregates =
          task->config.GetBool("orderby_aggregates", false);
      continue;
    }
    if (task->type == "orderby") {
      for (const std::string& text : task->config.GetStringList("orderby")) {
        SI_ASSIGN_OR_RETURN(SortKey key, ParseSortKey(text));
        query.order_by.push_back(std::move(key));
      }
      continue;
    }
    if (task->type == "limit") {
      SI_ASSIGN_OR_RETURN(int64_t limit, task->config.GetInt("limit", 0));
      query.limit = static_cast<size_t>(limit);
      continue;
    }
    // topn without grouping lowers to order_by+limit.
    if (task->type == "topn" &&
        task->config.GetStringList("groupby").empty()) {
      for (const std::string& text :
           task->config.GetStringList("orderby_column")) {
        SI_ASSIGN_OR_RETURN(SortKey key, ParseSortKey(text));
        query.order_by.push_back(std::move(key));
      }
      SI_ASSIGN_OR_RETURN(int64_t limit, task->config.GetInt("limit", 0));
      query.limit = static_cast<size_t>(limit);
      continue;
    }
    // Anything else (map, join, per-group topn, ...) falls back to ops.
    return std::optional<TablePtr>{};
  }
  // Route through the endpoint's batcher so widget storms share scans and
  // repeated interactions hit the result cache.
  if (batcher != nullptr) {
    SI_ASSIGN_OR_RETURN(TablePtr result,
                        batcher->Execute(query, exec_context()));
    return std::optional<TablePtr>(std::move(result));
  }
  SI_ASSIGN_OR_RETURN(TablePtr result, cube->Execute(query, exec_context()));
  return std::optional<TablePtr>(std::move(result));
}

Result<Dashboard::CubeQueryResult> Dashboard::CubeQuery(
    const std::string& endpoint, const DataCube::Query& query) {
  std::shared_ptr<SharedScanBatcher> batcher;
  {
    std::lock_guard<std::mutex> lock(cube_mu_);
    auto batcher_it = batchers_.find(endpoint);
    if (batcher_it != batchers_.end()) batcher = batcher_it->second;
  }
  if (batcher == nullptr) {
    return Status::NotFound("no data cube for endpoint '" + endpoint + "'");
  }
  CubeQueryResult out;
  SI_ASSIGN_OR_RETURN(out.table, batcher->Execute(query, exec_context(),
                                                  &out.cache_hit));
  return out;
}

Result<TablePtr> Dashboard::EvaluateWidgetFlow(const WidgetDecl& widget) {
  SI_ASSIGN_OR_RETURN(std::optional<TablePtr> from_cube, TryCube(widget));
  if (from_cube.has_value()) {
    ++cube_hits_;
    return std::move(*from_cube);
  }
  ++ops_fallbacks_;
  SI_ASSIGN_OR_RETURN(TablePtr current, RootTable(widget.source.root));
  SelectionResolver resolver(this);
  TaskBindContext context;
  context.input_names = {widget.source.root};
  context.base_dir = options_.base_dir;
  context.widgets = &resolver;
  context.aggregates = options_.aggregates;
  context.scalars = options_.scalars;
  for (const std::string& task_name : widget.source.tasks) {
    const TaskDecl* task = file_.FindTask(task_name);
    if (task == nullptr) {
      return Status::NotFound("widget '" + widget.name +
                              "' references unknown task '" + task_name +
                              "'");
    }
    SI_ASSIGN_OR_RETURN(TableOperatorPtr op, BuildTask(*task, file_, context));
    Result<TablePtr> next = op->Execute({current}, exec_context());
    if (!next.ok()) {
      return next.status().WithContext("evaluating widget '" + widget.name +
                                       "' task '" + task_name + "'");
    }
    current = std::move(*next);
  }
  return current;
}

Result<TablePtr> Dashboard::WidgetData(const std::string& widget_name) {
  const WidgetDecl* widget = file_.FindWidget(widget_name);
  if (widget == nullptr) {
    return Status::NotFound("no widget named '" + widget_name + "'");
  }
  if (widget->source.IsStatic()) {
    // Static widgets carry their literal values as a one-column table.
    TableBuilder builder(Schema::FromNames({"value"}));
    for (const std::string& value : widget->source.static_values) {
      SI_RETURN_IF_ERROR(builder.AppendRow({Value::Infer(value)}));
    }
    return builder.Finish();
  }
  return EvaluateWidgetFlow(*widget);
}

Result<TablePtr> Dashboard::EndpointData(const std::string& name) const {
  return store_.Get(name);
}

Result<std::map<std::string, TablePtr>> Dashboard::RefreshAll() {
  std::map<std::string, TablePtr> out;
  for (const WidgetDecl& widget : file_.widgets) {
    Result<WidgetTypeInfo> info =
        WidgetTypeRegistry::Default().Get(widget.type);
    if (info.ok() && info->is_container) continue;
    if (widget.source.IsStatic() && widget.source.static_values.empty()) {
      continue;  // no data to compute
    }
    SI_ASSIGN_OR_RETURN(TablePtr table, WidgetData(widget.name));
    out[widget.name] = std::move(table);
  }
  return out;
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

Result<std::string> Dashboard::RenderText(const RenderOptions& options) {
  // Environment adaptation (§4.1): narrow screens stack layout cells and
  // shrink previews; low-power clients bypass the cubes.
  bool narrow = options.screen_columns < 80;
  size_t preview_rows =
      narrow ? std::max<size_t>(2, options.preview_rows / 2)
             : options.preview_rows;
  bool saved_use_cube = options_.use_cube;
  if (options.low_power) options_.use_cube = false;

  std::ostringstream out;
  out << "== Dashboard: "
      << (file_.layout.description.empty() ? file_.name
                                           : file_.layout.description)
      << " ==\n";
  if (narrow) out << "(narrow screen: stacked layout)\n";
  // Render widgets referenced by the layout (containers expand inline).
  std::function<Status(const std::string&, int)> render_widget =
      [&](const std::string& name, int depth) -> Status {
    const WidgetDecl* widget = file_.FindWidget(name);
    if (widget == nullptr) {
      return Status::NotFound("layout references unknown widget '" + name +
                              "'");
    }
    std::string pad(static_cast<size_t>(depth) * 2, ' ');
    SI_ASSIGN_OR_RETURN(WidgetTypeInfo info,
                        WidgetTypeRegistry::Default().Get(widget->type));
    out << pad << "[" << widget->type << "] " << widget->name;
    auto selection = selections_.find(name);
    if (selection != selections_.end() &&
        !selection->second.values.empty()) {
      out << " (selection:";
      for (const Value& v : selection->second.values) {
        out << " " << v.ToString();
      }
      out << ")";
    }
    out << "\n";
    if (info.is_container) {
      const ConfigNode* rows = widget->config.Find("rows");
      if (rows != nullptr) {
        SI_ASSIGN_OR_RETURN(auto parsed, ParseLayoutRows(*rows));
        for (const auto& row : parsed) {
          for (const LayoutCell& cell : row) {
            SI_RETURN_IF_ERROR(render_widget(cell.widget, depth + 1));
          }
        }
      }
      const ConfigNode* tabs = widget->config.Find("tabs");
      if (tabs != nullptr && tabs->is_list()) {
        for (const ConfigNode& tab : tabs->items()) {
          out << pad << "  tab: " << tab.GetString("name") << "\n";
          std::string body = tab.GetString("body");
          if (!body.empty()) {
            std::string child =
                StartsWith(body, "W.") ? body.substr(2) : body;
            SI_RETURN_IF_ERROR(render_widget(child, depth + 2));
          }
        }
      }
      return Status::OK();
    }
    if (!widget->source.IsStatic() || !widget->source.static_values.empty()) {
      Result<TablePtr> data = WidgetData(name);
      if (data.ok()) {
        std::istringstream preview(
            RenderWidgetAscii(*widget, **data, preview_rows));
        std::string line;
        while (std::getline(preview, line)) {
          out << pad << "  " << line << "\n";
        }
      } else {
        out << pad << "  <no data: " << data.status().ToString() << ">\n";
      }
    }
    return Status::OK();
  };

  for (size_t r = 0; r < file_.layout.rows.size(); ++r) {
    if (!narrow) out << "-- row " << (r + 1) << " --\n";
    for (const LayoutCell& cell : file_.layout.rows[r]) {
      if (narrow) {
        // Each cell becomes its own full-width row.
        out << "-- span12 (stacked) --\n";
      } else {
        out << " span" << cell.span << ":\n";
      }
      Status rendered = render_widget(cell.widget, 1);
      if (!rendered.ok()) {
        options_.use_cube = saved_use_cube;
        return rendered;
      }
    }
  }
  options_.use_cube = saved_use_cube;
  return out.str();
}

}  // namespace shareinsights
