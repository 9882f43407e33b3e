#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "compile/compiler.h"
#include "common/fault.h"
#include "compile/diagnostics.h"
#include "exec/executor.h"
#include "flow/flow_file.h"
#include "gov/cancellation.h"
#include "gov/memory_budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/aggregate.h"
#include "table/append.h"

namespace shareinsights {
namespace {

// A sum that sleeps ~1ms per row. It implements Merge so the enclosing
// group-by keeps its multi-morsel plan — the whole point is that a
// fired token lands at morsel granularity instead of waiting for the
// entire aggregation to finish.
class SlowSum : public Aggregator {
 public:
  Status Update(const Value& value) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Result<double> d = value.ToDouble();
    if (d.ok()) total_ += *d;
    return Status::OK();
  }
  Result<Value> Finalize() override { return Value(total_); }
  bool mergeable() const override { return true; }
  Status Merge(const Aggregator& other) override {
    total_ += static_cast<const SlowSum&>(other).total_;
    return Status::OK();
  }

 private:
  double total_ = 0;
};

// Inline-CSV flow whose single group-by runs `agg` over `rows` rows
// spread across 8 keys.
std::string SlowFlowText(int rows, const std::string& agg) {
  std::string csv = "key,value\n";
  for (int i = 0; i < rows; ++i) {
    csv += "k" + std::to_string(i % 8) + "," + std::to_string(i % 10) + "\n";
  }
  return std::string("D:\n") +
         "  events: [key, value]\n"
         "D.events:\n"
         "  protocol: inline\n"
         "  format: csv\n"
         "  data: \"" + csv + "\"\n"
         "F:\n"
         "  D.totals: D.events | T.slow_totals\n"
         "D.totals:\n"
         "  endpoint: true\n"
         "T:\n"
         "  slow_totals:\n"
         "    type: groupby\n"
         "    groupby: [key]\n"
         "    aggregates:\n"
         "      - operator: " + agg + "\n"
         "        apply_on: value\n"
         "        out_field: total\n";
}

ExecutionPlan CompileSlowFlow(int rows, const std::string& agg,
                              AggregateRegistry* registry) {
  auto file = ParseFlowFile(SlowFlowText(rows, agg), "governance");
  EXPECT_TRUE(file.ok()) << file.status();
  CompileOptions options;
  options.aggregates = registry;
  auto plan = CompileFlowFile(*file, options);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

AggregateRegistry* SlowRegistry() {
  static AggregateRegistry* registry = [] {
    auto* r = new AggregateRegistry();
    Status s = r->Register(
        "slow_sum", [] { return std::make_unique<SlowSum>(); });
    EXPECT_TRUE(s.ok()) << s;
    return r;
  }();
  return registry;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Satellite 1 (executor level): a deadline genuinely aborts a long run.
// The uncancelled run takes >1s of wall clock; with a 50ms deadline the
// same plan must come back kCancelled in well under 200ms — proof the
// work was stopped, not merely re-labelled after completing.
TEST(GovernanceExecTest, DeadlineAbortsLongRunWithinMorselLatency) {
  // 2400 rows x ~1ms per Update across 2 workers ≈ 1.2s uncancelled.
  ExecutionPlan plan = CompileSlowFlow(2400, "slow_sum", SlowRegistry());

  ExecuteOptions options;
  options.num_threads = 2;
  options.morsel_rows = 8;

  auto uncancelled_start = std::chrono::steady_clock::now();
  DataStore store;
  auto stats = Executor(options).Execute(plan, &store);
  double uncancelled_ms = ElapsedMs(uncancelled_start);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(uncancelled_ms, 500.0);
  EXPECT_EQ((*store.Get("totals"))->num_rows(), 8u);

  Counter* cancelled_runs = MetricsRegistry::Default().GetCounter(
      "queries_cancelled_total", "Queries aborted by cooperative cancellation");
  int64_t before = cancelled_runs->Value();

  CancellationToken token;
  token.ArmDeadline(50);
  options.cancel = &token;
  auto cancelled_start = std::chrono::steady_clock::now();
  DataStore second_store;
  auto aborted = Executor(options).Execute(plan, &second_store);
  double cancelled_ms = ElapsedMs(cancelled_start);

  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
  EXPECT_NE(aborted.status().message().find("deadline"), std::string::npos)
      << aborted.status();
  EXPECT_LT(cancelled_ms, 200.0);
  EXPECT_LT(cancelled_ms * 2, uncancelled_ms);
  EXPECT_GE(cancelled_runs->Value() - before, 1);
}

// An explicitly fired token (client abort) has the same effect as a
// blown deadline, and the reason string travels with the status.
TEST(GovernanceExecTest, ClientCancelAbortsRun) {
  ExecutionPlan plan = CompileSlowFlow(2400, "slow_sum", SlowRegistry());
  ExecuteOptions options;
  options.num_threads = 2;
  options.morsel_rows = 8;
  CancellationToken token;
  options.cancel = &token;

  std::thread firer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel("client went away");
  });
  auto start = std::chrono::steady_clock::now();
  DataStore store;
  auto stats = Executor(options).Execute(plan, &store);
  double wall_ms = ElapsedMs(start);
  firer.join();

  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCancelled);
  EXPECT_NE(stats.status().message().find("client went away"),
            std::string::npos);
  EXPECT_LT(wall_ms, 200.0);
}

// A query memory budget too small for the group-by's materialization
// fails the run with kResourceExhausted naming the operator and the
// budget — and the process stays healthy: no bytes leak, and the same
// plan succeeds immediately afterwards without the cap.
TEST(GovernanceExecTest, MemBudgetFailsQueryNamingOperatorThenRecovers) {
  ExecutionPlan plan = CompileSlowFlow(64, "sum", nullptr);
  size_t baseline = MemoryBudget::Process().reserved();

  Counter* failed_runs = MetricsRegistry::Default().GetCounter(
      "mem_budget_failed_runs_total",
      "Runs failed by a memory budget rejection");
  int64_t before = failed_runs->Value();

  ExecuteOptions options;
  options.mem_budget_bytes = 64;  // 8 groups x 2 cells won't fit
  options.enable_spill = false;   // keep the hard-fail contract under test
  DataStore store;
  auto stats = Executor(options).Execute(plan, &store);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(stats.status().message().find("groupby"), std::string::npos)
      << stats.status();
  EXPECT_NE(stats.status().message().find("'query'"), std::string::npos)
      << stats.status();
  EXPECT_GE(failed_runs->Value() - before, 1);

  // Every reservation unwound: the process ledger is back to baseline.
  EXPECT_EQ(MemoryBudget::Process().reserved(), baseline);

  // The process is not poisoned — the same plan runs clean without the cap.
  ExecuteOptions unbounded;
  DataStore second_store;
  auto ok_stats = Executor(unbounded).Execute(plan, &second_store);
  ASSERT_TRUE(ok_stats.ok()) << ok_stats.status();
  EXPECT_EQ((*second_store.Get("totals"))->num_rows(), 8u);
  EXPECT_EQ(MemoryBudget::Process().reserved(), baseline);
}

// The same starved budget with spilling enabled (the default) completes
// the run instead of failing: the group-by degrades to compressed
// on-disk partitions, the output matches the unbudgeted run, the stats
// report the spill, and the ledger unwinds to baseline.
TEST(GovernanceExecTest, MemBudgetSpillsAndCompletesWhenEnabled) {
  ExecutionPlan plan = CompileSlowFlow(64, "sum", nullptr);
  size_t baseline = MemoryBudget::Process().reserved();

  ExecuteOptions unbounded;
  DataStore reference_store;
  auto reference = Executor(unbounded).Execute(plan, &reference_store);
  ASSERT_TRUE(reference.ok()) << reference.status();

  ExecuteOptions options;
  options.mem_budget_bytes = 64;  // same cap that hard-fails above
  DataStore store;
  auto stats = Executor(options).Execute(plan, &store);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->spills, 0);
  EXPECT_GT(stats->spill_bytes_written, 0);
  EXPECT_EQ(stats->spill_bytes_read, stats->spill_bytes_written);
  EXPECT_EQ((*store.Get("totals"))->ToDisplayString(1000),
            (*reference_store.Get("totals"))->ToDisplayString(1000));
  EXPECT_EQ(MemoryBudget::Process().reserved(), baseline);
}

// A budget generous enough for the run changes nothing: same rows, and
// the ledger returns to baseline when the run finishes.
TEST(GovernanceExecTest, GenerousBudgetIsInvisible) {
  ExecutionPlan plan = CompileSlowFlow(64, "sum", nullptr);
  size_t baseline = MemoryBudget::Process().reserved();
  ExecuteOptions options;
  options.mem_budget_bytes = 16 * 1024 * 1024;
  DataStore store;
  auto stats = Executor(options).Execute(plan, &store);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ((*store.Get("totals"))->num_rows(), 8u);
  EXPECT_EQ(MemoryBudget::Process().reserved(), baseline);
}

// Governed runs stay deterministic: any thread count / morsel size /
// budget combination produces byte-identical endpoint tables.
TEST(GovernanceExecTest, GovernedRunsAreDeterministic) {
  ExecutionPlan plan = CompileSlowFlow(200, "sum", nullptr);

  auto run = [&](size_t threads, size_t morsel_rows, size_t budget) {
    ExecuteOptions options;
    options.num_threads = threads;
    options.morsel_rows = morsel_rows;
    options.mem_budget_bytes = budget;
    DataStore store;
    auto stats = Executor(options).Execute(plan, &store);
    EXPECT_TRUE(stats.ok()) << stats.status();
    auto table = store.Get("totals");
    EXPECT_TRUE(table.ok());
    return (*table)->ToDisplayString(1000);
  };

  std::string reference = run(1, 0, 0);
  EXPECT_EQ(run(4, 7, 0), reference);
  EXPECT_EQ(run(2, 16, 64 * 1024 * 1024), reference);
}

// ------------------------------------------------------------------
// Run and ExecuteAppend share one task step and one failure tail.
// ------------------------------------------------------------------

// Inline-CSV flow with a delta-maintainable filter (D.kept) and a top-n
// (D.top), which cannot take deltas and re-runs fully on every append.
ExecutionPlan CompileAppendFlow() {
  std::string csv = "key,value\n";
  for (int i = 0; i < 40; ++i) {
    csv += "k" + std::to_string(i % 4) + "," + std::to_string(i) + "\n";
  }
  std::string text = std::string("D:\n") +
                     "  events: [key, value]\n"
                     "D.events:\n"
                     "  protocol: inline\n"
                     "  format: csv\n"
                     "  data: \"" + csv + "\"\n"
                     "F:\n"
                     "  D.kept: D.events | T.keep\n"
                     "  D.top: D.events | T.top\n"
                     "D.kept:\n"
                     "  endpoint: true\n"
                     "D.top:\n"
                     "  endpoint: true\n"
                     "T:\n"
                     "  keep:\n"
                     "    type: filter_by\n"
                     "    filter_expression: 'value >= 10'\n"
                     "  top:\n"
                     "    type: topn\n"
                     "    groupby: [key]\n"
                     "    orderby_column: [value desc]\n"
                     "    limit: 2\n";
  auto file = ParseFlowFile(text, "governance_append");
  EXPECT_TRUE(file.ok()) << file.status();
  auto plan = CompileFlowFile(*file);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

TablePtr AppendBatch(const DataStore& store, int rows) {
  std::vector<std::vector<Value>> values;
  for (int i = 0; i < rows; ++i) {
    values.push_back({Value("k" + std::to_string(i % 4)),
                      Value(static_cast<int64_t>(100 + i))});
  }
  auto batch = MakeAppendBatch(**store.Get("events"), values);
  EXPECT_TRUE(batch.ok()) << batch.status();
  return *batch;
}

const Span* FindSpan(const std::vector<Span>& spans, const std::string& name) {
  for (const Span& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

bool HasAttribute(const Span& span, const std::string& key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return true;
  }
  return false;
}

TEST(GovernanceExecTest, CancelledAppendCountsAsCancelledQuery) {
  ExecutionPlan plan = CompileAppendFlow();
  DataStore store;
  ASSERT_TRUE(Executor().Execute(plan, &store).ok());
  TablePtr before = *store.Get("events");

  Counter* cancelled_runs = MetricsRegistry::Default().GetCounter(
      "queries_cancelled_total", "Queries aborted by cooperative cancellation");
  int64_t count_before = cancelled_runs->Value();

  CancellationToken token;
  token.Cancel("client went away");
  ExecuteOptions options;
  options.cancel = &token;
  auto outcome = Executor(options).ExecuteAppend(
      plan, &store, "events", AppendBatch(store, 4), nullptr);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled_runs->Value() - count_before, 1);
  EXPECT_EQ(store.Get("events")->get(), before.get());
}

TEST(GovernanceExecTest, AppendOverBudgetCountsAsFailedRun) {
  ExecutionPlan plan = CompileAppendFlow();
  DataStore store;
  ASSERT_TRUE(Executor().Execute(plan, &store).ok());
  size_t baseline = MemoryBudget::Process().reserved();

  Counter* failed_runs = MetricsRegistry::Default().GetCounter(
      "mem_budget_failed_runs_total",
      "Runs failed by a memory budget rejection");
  int64_t before = failed_runs->Value();

  ExecuteOptions options;
  options.mem_budget_bytes = 16;  // smaller than any 8-row batch
  auto outcome = Executor(options).ExecuteAppend(
      plan, &store, "events", AppendBatch(store, 8), nullptr);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(outcome.status().message().find("append:delta"),
            std::string::npos)
      << outcome.status();
  EXPECT_EQ(failed_runs->Value() - before, 1);
  EXPECT_EQ(MemoryBudget::Process().reserved(), baseline);
}

// A source refused by the process budget fails the run through the same
// tail as any other refused reservation.
TEST(GovernanceExecTest, SourceLoadOverProcessBudgetCountsAsFailedRun) {
  ExecutionPlan plan = CompileAppendFlow();
  Counter* failed_runs = MetricsRegistry::Default().GetCounter(
      "mem_budget_failed_runs_total",
      "Runs failed by a memory budget rejection");
  int64_t before = failed_runs->Value();

  MemoryBudget& process = MemoryBudget::Process();
  process.set_capacity(process.reserved() + 16);
  DataStore store;
  auto stats = Executor().Execute(plan, &store);
  process.set_capacity(0);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(stats.status().message().find("source:load"), std::string::npos)
      << stats.status();
  EXPECT_EQ(failed_runs->Value() - before, 1);
}

// Tasks of a flow the append path re-runs fully carry the same span
// attributes as Run's tasks.
TEST(GovernanceExecTest, AppendFallbackTasksAreTracedLikeRunTasks) {
  ExecutionPlan plan = CompileAppendFlow();
  DataStore store;
  ASSERT_TRUE(Executor().Execute(plan, &store).ok());

  Tracer tracer;
  ExecuteOptions options;
  options.tracer = &tracer;
  auto outcome = Executor(options).ExecuteAppend(
      plan, &store, "events", AppendBatch(store, 4), nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->stats.flows_full_fallback, 1);

  std::vector<Span> spans = tracer.Spans();
  const Span* top = FindSpan(spans, "exec.task:top");
  ASSERT_NE(top, nullptr);
  EXPECT_TRUE(HasAttribute(*top, "op"));
  EXPECT_TRUE(HasAttribute(*top, "rows_in"));
  EXPECT_TRUE(HasAttribute(*top, "rows_out"));
  const Span* keep = FindSpan(spans, "exec.delta_task:keep");
  ASSERT_NE(keep, nullptr);
  EXPECT_TRUE(HasAttribute(*keep, "rows_out"));
}

// The exec.node fault site sits inside the task span on the append path,
// as on Run's: a fault on the delta path leaves a failed delta-task span,
// and the flow's full re-run then succeeds.
TEST(GovernanceExecTest, AppendFaultFiresInsideTheTaskSpan) {
  ExecutionPlan plan = CompileAppendFlow();
  DataStore store;
  ASSERT_TRUE(Executor().Execute(plan, &store).ok());

  FaultSpec spec;
  spec.max_fires = 1;
  FaultInjector::Get().Arm(kFaultExecNode, spec);
  Tracer tracer;
  ExecuteOptions options;
  options.tracer = &tracer;
  auto outcome = Executor(options).ExecuteAppend(
      plan, &store, "events", AppendBatch(store, 4), nullptr);
  int64_t fires = FaultInjector::Get().fires(kFaultExecNode);
  FaultInjector::Get().Reset();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(outcome->stats.flows_full_fallback, 2);

  std::vector<Span> spans = tracer.Spans();
  const Span* failed = FindSpan(spans, "exec.delta_task:keep");
  ASSERT_NE(failed, nullptr);
  EXPECT_FALSE(HasAttribute(*failed, "rows_out"));
  const Span* rerun = FindSpan(spans, "exec.task:keep");
  ASSERT_NE(rerun, nullptr);
  EXPECT_TRUE(HasAttribute(*rerun, "rows_out"));
}

// ------------------------------------------------------------------
// Satellite 2: compile-time validation of governance D-section params.
// ------------------------------------------------------------------

Result<ExecutionPlan> CompileWithParams(const std::string& params_yaml) {
  std::string text = std::string("D:\n") +
                     "  src: [key, value]\n"
                     "D.src:\n"
                     "  protocol: inline\n"
                     "  format: csv\n"
                     "  data: \"key,value\na,1\n\"\n" +
                     params_yaml +
                     "F:\n"
                     "  D.out: D.src | T.keep\n"
                     "T:\n"
                     "  keep:\n"
                     "    type: distinct\n";
  auto file = ParseFlowFile(text, "governance_params");
  EXPECT_TRUE(file.ok()) << file.status();
  return CompileFlowFile(*file);
}

TEST(GovernanceCompileTest, ZeroRetryAttemptsIsACompileError) {
  auto plan = CompileWithParams("  retry:\n    max_attempts: 0\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("data object 'src'"),
            std::string::npos)
      << plan.status();
  EXPECT_NE(plan.status().message().find("at least 1"), std::string::npos);
}

TEST(GovernanceCompileTest, NegativeTimeoutIsACompileError) {
  auto plan = CompileWithParams("  timeout_ms: -250\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("data object 'src'"),
            std::string::npos);
  EXPECT_NE(plan.status().message().find("timeout_ms"), std::string::npos);
  EXPECT_NE(plan.status().message().find("non-negative"), std::string::npos);
}

TEST(GovernanceCompileTest, NonNumericMemBudgetIsACompileError) {
  auto plan = CompileWithParams("  mem_budget: lots\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("data object 'src'"),
            std::string::npos);
  EXPECT_NE(plan.status().message().find("mem_budget"), std::string::npos);
  EXPECT_NE(plan.status().message().find("'lots'"), std::string::npos);
}

TEST(GovernanceCompileTest, NonNumericBackoffIsACompileError) {
  auto plan = CompileWithParams(
      "  retry:\n    max_attempts: 3\n    backoff_ms: soonish\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("retry.backoff_ms"),
            std::string::npos);
}

// The validation error feeds the diagnostics engine: ExplainError
// pin-points the D section and the offending data object.
TEST(GovernanceCompileTest, DiagnosticsPinpointTheDataObject) {
  std::string text = std::string("D:\n") +
                     "  src: [key, value]\n"
                     "D.src:\n"
                     "  protocol: inline\n"
                     "  format: csv\n"
                     "  data: \"key,value\na,1\n\"\n"
                     "  mem_budget: lots\n"
                     "F:\n"
                     "  D.out: D.src | T.keep\n"
                     "T:\n"
                     "  keep:\n"
                     "    type: distinct\n";
  auto file = ParseFlowFile(text, "governance_params");
  ASSERT_TRUE(file.ok()) << file.status();
  auto plan = CompileFlowFile(*file);
  ASSERT_FALSE(plan.ok());
  Diagnosis diagnosis = ExplainError(plan.status(), *file);
  EXPECT_EQ(diagnosis.section, "D");
  EXPECT_EQ(diagnosis.entity, "src");
}

TEST(GovernanceCompileTest, WellFormedGovernanceParamsCompile) {
  auto plan = CompileWithParams(
      "  retry:\n"
      "    max_attempts: 3\n"
      "    backoff_ms: 10.5\n"
      "  timeout_ms: 2000\n"
      "  mem_budget: 1048576\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
}

}  // namespace
}  // namespace shareinsights
