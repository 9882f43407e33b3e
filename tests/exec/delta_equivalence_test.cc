// Delta-equivalence property suite for the streaming append path: a
// base run plus N random append batches maintained incrementally
// (Executor::ExecuteAppend — pass-through deltas, group-by
// accumulators, full-re-run fallback) must be BYTE-identical to a cold
// full run over the grown inputs, for every materialized object, across
// thread counts, under fault injection on the append path, and through
// the DataCube copy-extension. Mirrors tests/ops/encoding_equivalence_
// test.cc: cells compare by exact bits (double bit patterns, not
// Value::operator==).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "compile/compiler.h"
#include "cube/data_cube.h"
#include "dashboard/dashboard.h"
#include "exec/executor.h"
#include "flow/flow_file.h"
#include "table/append.h"
#include "table/column.h"
#include "table/table.h"

namespace shareinsights {
namespace {

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::string CellBits(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "N";
    case ValueType::kBool:
      return v.bool_value() ? "b1" : "b0";
    case ValueType::kInt64:
      return "i" + std::to_string(v.int64_value());
    case ValueType::kDouble:
      return "d" + std::to_string(DoubleBits(v.double_value()));
    case ValueType::kString:
      return "s" + v.string_value();
  }
  return "?";
}

std::string TableBits(const Table& table) {
  std::string out = table.schema().ToString();
  out += "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      out += CellBits(table.at(r, c));
      out += "|";
    }
    out += "\n";
  }
  return out;
}

// Deterministic splitmix-style generator (same idiom as the encoding
// suite) so every run appends the same random batches.
struct Rand {
  uint64_t state;
  uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

// The flow under test covers every delta family: a filter, a project
// and two maps (pass-through; one explodes rows into words), a group-by
// fed by the filter (accumulate), an inner join whose build side never
// changes (pass-through), and a flow downstream of the accumulator's
// full-changed output (full-re-run fallback).
std::string FlowText() {
  Rand rng{11};
  std::string csv = "cat,word,id,score\n";
  for (int i = 0; i < 120; ++i) {
    uint64_t r = rng.next();
    csv += "cat" + std::to_string(r % 5) + ",w" + std::to_string(r % 23) +
           "," + std::to_string(r % 97) + "," +
           std::to_string(static_cast<double>(r % 400) / 8.0) + "\n";
  }
  return R"(
D:
  events: [cat, word, id, score]
  dim: [cat, bonus]
D.events:
  protocol: inline
  format: csv
  data: ")" +
         csv + R"("
D.dim:
  protocol: inline
  format: csv
  data: "cat,bonus
cat0,100
cat1,101
cat2,102
cat3,103
catZZ,999
"
F:
  D.filtered: D.events | T.keep
  D.named: D.events | T.pick
  D.sums: D.filtered | T.sum_by_cat
  D.joined: (D.events, D.dim) | T.join_dim
  D.big: D.sums | T.big_totals
  D.words: D.events | T.tokens
  D.scaled: D.events | T.scale
D.filtered:
  endpoint: true
D.joined:
  endpoint: true
T:
  keep:
    type: filter_by
    filter_expression: 'score >= 10'
  pick:
    type: project
    project:
      cat: category
      id: id
  sum_by_cat:
    type: groupby
    groupby: [cat]
    aggregates:
      - operator: sum
        apply_on: id
        out_field: total
      - operator: count
        apply_on: id
        out_field: n
      - operator: avg
        apply_on: score
        out_field: mean
  join_dim:
    type: join
    left: events by cat
    right: dim by cat
    join_condition: inner
    project:
      events_cat: cat
      events_id: id
      events_score: score
      dim_bonus: bonus
  big_totals:
    type: filter_by
    filter_expression: 'total > 200'
  tokens:
    type: map
    operator: extract_words
    transform: word
    output: token
  scale:
    type: map
    operator: expression
    expression: 'score * 3 + 1'
    output: scaled
)";
}

ExecutionPlan PlanUnderTest() {
  auto file = ParseFlowFile(FlowText(), "delta_eq");
  EXPECT_TRUE(file.ok()) << file.status();
  auto plan = CompileFlowFile(*file);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

const std::vector<std::string> kObjects = {
    "events", "filtered", "named", "sums", "joined", "big", "words", "scaled"};

// One random append batch: known and fresh dictionary strings, nulls in
// every column, doubles with fractional parts. Odd batches also give
// about a quarter of their rows a string of their own in both string
// columns, so the batch's dictionaries hold many strings the base lacks
// and merge into it (and into the downstream accumulators and joins)
// through Concat.
std::vector<std::vector<Value>> RandomRows(Rand& rng, int n, int batch) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; ++i) {
    uint64_t r = rng.next();
    bool unique = batch % 2 == 1 && r % 4 == 0;
    std::string tag = std::to_string(batch) + "_" + std::to_string(i);
    Value cat = unique      ? Value("u" + tag)
                : r % 11 == 0 ? Value("fresh" + std::to_string(batch) + "_" +
                                      std::to_string(r % 3))
                              : Value("cat" + std::to_string(r % 6));
    Value word = r % 13 == 0 ? Value::Null()
                 : unique    ? Value("uw" + tag)
                             : Value("w" + std::to_string(r % 29));
    Value id = r % 17 == 0 ? Value::Null()
                           : Value(static_cast<int64_t>(r % 97));
    Value score = r % 19 == 0
                      ? Value::Null()
                      : Value(static_cast<double>(r % 400) / 8.0);
    rows.push_back({cat, word, id, score});
  }
  return rows;
}

class DeltaEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  ExecuteOptions ThreadedOptions() {
    ExecuteOptions options;
    options.num_threads = static_cast<size_t>(GetParam());
    return options;
  }

  // Cold oracle: a fresh store seeded with the grown events table (built
  // from scratch — the incremental concat result is deliberately NOT
  // reused) and every flow re-run from zero. The empty dirty set keeps
  // the inline source from reloading over the seeded table; missing
  // outputs force every flow to execute.
  std::map<std::string, std::string> OracleBits(
      const ExecutionPlan& plan, const TablePtr& events,
      const std::string& source = "events",
      const std::vector<std::string>& objects = kObjects,
      size_t morsel_rows = 0) {
    DataStore store;
    store.Put(source, events);
    ExecuteOptions options = ThreadedOptions();
    options.morsel_rows = morsel_rows;
    Executor executor(options);
    auto stats = executor.ExecuteIncremental(plan, &store, {});
    EXPECT_TRUE(stats.ok()) << stats.status();
    std::map<std::string, std::string> bits;
    for (const std::string& name : objects) {
      auto table = store.Get(name);
      EXPECT_TRUE(table.ok()) << name << ": " << table.status();
      bits[name] = TableBits(**table);
    }
    return bits;
  }

  // Rebuilds the grown events table cold: decode every accumulated cell
  // and re-encode through Table::Create, so the oracle input shares no
  // storage with the incremental concat chain.
  TablePtr ColdEvents(const TablePtr& incremental_events) {
    std::vector<std::vector<Value>> columns;
    for (size_t c = 0; c < incremental_events->num_columns(); ++c) {
      columns.push_back(incremental_events->column(c));
    }
    auto cold = Table::Create(incremental_events->schema(),
                              std::move(columns));
    EXPECT_TRUE(cold.ok()) << cold.status();
    return *cold;
  }
};

TEST_P(DeltaEquivalenceTest, AppendsMatchColdRerunOracle) {
  ExecutionPlan plan = PlanUnderTest();
  DataStore store;
  Executor executor(ThreadedOptions());
  ASSERT_TRUE(executor.Execute(plan, &store).ok());

  IncrementalState state;
  Rand rng{977};
  int64_t deltas_seen = 0;
  for (int batch = 0; batch < 6; ++batch) {
    TablePtr base = *store.Get("events");
    auto delta = MakeAppendBatch(*base, RandomRows(rng, 5 + batch * 7, batch));
    ASSERT_TRUE(delta.ok()) << delta.status();
    auto outcome =
        executor.ExecuteAppend(plan, &store, "events", *delta, &state);
    ASSERT_TRUE(outcome.ok()) << "batch " << batch << ": "
                              << outcome.status();
    deltas_seen += outcome->stats.flows_delta;

    // The appended object itself reports its delta and prior version.
    EXPECT_EQ(outcome->deltas.at("events").get(), delta->get());
    EXPECT_EQ(outcome->prev_versions.at("events"), base->version());
    EXPECT_GT((*store.Get("events"))->version(), base->version());

    // The accumulator's output is a rewrite; the pass-through flows ship
    // deltas.
    EXPECT_TRUE(outcome->full_changed.count("sums") == 1);
    EXPECT_TRUE(outcome->full_changed.count("big") == 1);
    EXPECT_TRUE(outcome->deltas.count("filtered") == 1);
    EXPECT_TRUE(outcome->deltas.count("named") == 1);
    EXPECT_TRUE(outcome->deltas.count("joined") == 1);
    EXPECT_TRUE(outcome->deltas.count("words") == 1);
    EXPECT_TRUE(outcome->deltas.count("scaled") == 1);

    std::map<std::string, std::string> oracle =
        OracleBits(plan, ColdEvents(*store.Get("events")));
    for (const std::string& name : kObjects) {
      EXPECT_EQ(TableBits(**store.Get(name)), oracle[name])
          << "object " << name << " after batch " << batch;
    }
  }
  // The delta path actually ran (filter/project/join/maps as deltas, the
  // group-by as an accumulator) — this suite must not silently pass by
  // falling back to full re-runs everywhere.
  EXPECT_GE(deltas_seen, 6 * 6);
  EXPECT_GT((*store.Get("words"))->num_rows(), 0u);
}

// Double sums and averages over values that are not multiples of a power
// of two, with many morsels per table: double addition is not
// associative, so the accumulator must merge per-morsel partials at the
// cold path's morsel boundaries or its low bits drift. The 16-row
// batches start mid-morsel (1000 % 64 = 40) and cross boundaries.
TEST_P(DeltaEquivalenceTest, DoubleAggregatesFollowColdMorselBoundaries) {
  constexpr size_t kMorselRows = 64;
  Rand rng{2024};
  auto x = [&rng] {
    return static_cast<double>(rng.next() % 1000000) / 7.0;
  };
  std::string csv = "cat,id,x\n";
  for (int i = 0; i < 1000; ++i) {
    uint64_t r = rng.next();
    csv += "c" + std::to_string(r % 6) + "," + std::to_string(r % 4) + "," +
           std::to_string(x()) + "\n";
  }
  auto file = ParseFlowFile(R"(
D:
  facts: [cat, id, x]
D.facts:
  protocol: inline
  format: csv
  data: ")" + csv + R"("
F:
  D.by_cat: D.facts | T.by_cat
  D.by_pair: D.facts | T.by_pair
T:
  by_cat:
    type: groupby
    groupby: [cat]
    aggregates:
      - operator: sum
        apply_on: x
        out_field: total
      - operator: avg
        apply_on: x
        out_field: mean
  by_pair:
    type: groupby
    groupby: [cat, id]
    aggregates:
      - operator: sum
        apply_on: x
        out_field: total
      - operator: avg
        apply_on: x
        out_field: mean
)",
                            "delta_doubles");
  ASSERT_TRUE(file.ok()) << file.status();
  auto plan = CompileFlowFile(*file);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::vector<std::string> objects = {"by_cat", "by_pair"};

  ExecuteOptions options = ThreadedOptions();
  options.morsel_rows = kMorselRows;
  Executor executor(options);
  DataStore store;
  ASSERT_TRUE(executor.Execute(*plan, &store).ok());
  ASSERT_EQ((*store.Get("facts"))->num_rows(), 1000u);

  IncrementalState state;
  for (int batch = 0; batch < 6; ++batch) {
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < 16; ++i) {
      uint64_t r = rng.next();
      rows.push_back({Value("c" + std::to_string(r % 6)),
                      Value(static_cast<int64_t>(r % 4)), Value(x())});
    }
    auto delta = MakeAppendBatch(**store.Get("facts"), rows);
    ASSERT_TRUE(delta.ok()) << delta.status();
    auto outcome =
        executor.ExecuteAppend(*plan, &store, "facts", *delta, &state);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->stats.flows_delta, 2) << "batch " << batch;

    std::map<std::string, std::string> oracle =
        OracleBits(*plan, ColdEvents(*store.Get("facts")), "facts", objects,
                   kMorselRows);
    for (const std::string& name : objects) {
      EXPECT_EQ(TableBits(**store.Get(name)), oracle[name])
          << "object " << name << " after batch " << batch;
    }
  }
}

// Typed-batch construction (the satellite fix): batches built against a
// base table whose schema leaves fields untyped must still encode in
// place against the base columns — a dictionary column shares the base's
// interned dictionary and never degrades to kGeneric.
TEST(AppendBatchTest, UntypedSchemaKeepsBaseEncodings) {
  TableBuilder builder(Schema::FromNames({"k", "v"}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(builder
                    .AppendRow({Value("key" + std::to_string(i % 3)),
                                Value(static_cast<int64_t>(i))})
                    .ok());
  }
  TablePtr base = *builder.Finish();
  ASSERT_EQ(base->typed_column(0).encoding(), ColumnEncoding::kDict);
  ASSERT_EQ(base->typed_column(1).encoding(), ColumnEncoding::kInt64);

  // A known string, a fresh string (batch-local dictionary), and a
  // numeric cell that a dict column serializes — plus an int arriving as
  // a JSON-style double.
  auto batch = MakeAppendBatch(
      *base, {{Value("key1"), Value(5.0)},
              {Value("brand_new"), Value(static_cast<int64_t>(6))},
              {Value(static_cast<int64_t>(7)), Value::Null()}});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ((*batch)->typed_column(0).encoding(), ColumnEncoding::kDict);
  EXPECT_EQ((*batch)->typed_column(1).encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ((*batch)->at(0, 1), Value(static_cast<int64_t>(5)));
  EXPECT_EQ((*batch)->at(2, 0), Value("7"));

  // Concat stays dictionary-encoded and matches a cold re-encode of the
  // combined rows exactly.
  auto cold_reencode = [](const TablePtr& table) {
    std::vector<std::vector<Value>> columns;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      columns.push_back(table->column(c));
    }
    return *Table::Create(table->schema(), std::move(columns));
  };
  TablePtr grown = *ConcatTables(base, *batch);
  EXPECT_EQ(grown->typed_column(0).encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(grown->typed_column(1).encoding(), ColumnEncoding::kInt64);
  TablePtr cold = cold_reencode(grown);
  EXPECT_EQ(TableBits(*grown), TableBits(*cold));
  EXPECT_EQ(grown->typed_column(0).shared_dict().get(),
            cold->typed_column(0).shared_dict().get());

  // A batch with no new strings shares the base dictionary instance.
  auto same = MakeAppendBatch(*base, {{Value("key2"), Value::Null()}});
  ASSERT_TRUE(same.ok());
  EXPECT_EQ((*same)->typed_column(0).shared_dict().get(),
            base->typed_column(0).shared_dict().get());

  // New strings in two string columns — one repeated within the batch —
  // beside nulls and a numeric cell: each batch column carries a sorted
  // dictionary of exactly the batch's distinct strings (not base ∪ new),
  // and the concat merges it into the same interned dictionary a cold
  // re-encode builds.
  TableBuilder pair_builder(Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(pair_builder
                    .AppendRow({Value("a" + std::to_string(i % 4)),
                                Value("b" + std::to_string(i % 2))})
                    .ok());
  }
  TablePtr pair_base = *pair_builder.Finish();
  auto pair_batch = MakeAppendBatch(
      *pair_base, {{Value("new_a1"), Value("b0")},
                   {Value("a2"), Value("new_b1")},
                   {Value("new_a1"), Value::Null()},
                   {Value::Null(), Value("new_b2")},
                   {Value("new_a0"), Value(static_cast<int64_t>(42))},
                   {Value("a0"), Value("new_b1")}});
  ASSERT_TRUE(pair_batch.ok()) << pair_batch.status();
  const ColumnData& batch_a = (*pair_batch)->typed_column(0);
  const ColumnData& batch_b = (*pair_batch)->typed_column(1);
  ASSERT_EQ(batch_a.encoding(), ColumnEncoding::kDict);
  ASSERT_EQ(batch_b.encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(batch_a.dict(),
            (ColumnData::Dictionary{"a0", "a2", "new_a0", "new_a1"}));
  EXPECT_EQ(batch_b.dict(),
            (ColumnData::Dictionary{"42", "b0", "new_b1", "new_b2"}));
  EXPECT_TRUE(batch_a.IsNull(3));
  EXPECT_TRUE(batch_b.IsNull(2));

  TablePtr pair_grown = *ConcatTables(pair_base, *pair_batch);
  TablePtr pair_cold = cold_reencode(pair_grown);
  EXPECT_EQ(TableBits(*pair_grown), TableBits(*pair_cold));
  for (size_t c = 0; c < pair_grown->num_columns(); ++c) {
    EXPECT_EQ(pair_grown->typed_column(c).encoding(), ColumnEncoding::kDict);
    EXPECT_EQ(pair_grown->typed_column(c).shared_dict().get(),
              pair_cold->typed_column(c).shared_dict().get())
        << "column " << c;
  }

  // Unrepresentable cells still fail loudly against a declared type.
  TableBuilder typed(Schema({Field{"n", ValueType::kInt64}}));
  ASSERT_TRUE(typed.AppendRow({Value(static_cast<int64_t>(1))}).ok());
  TablePtr typed_base = *typed.Finish();
  auto bad = MakeAppendBatch(*typed_base, {{Value(1.5)}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// Faults injected on the append path (the same exec.node site as full
// runs) must degrade to the full-re-run fallback, never to wrong bytes.
TEST_P(DeltaEquivalenceTest, FaultsOnAppendPathStayByteIdentical) {
  ExecutionPlan plan = PlanUnderTest();
  DataStore store;
  ExecuteOptions options = ThreadedOptions();
  options.flow_retry_attempts = 4;
  Executor executor(options);
  ASSERT_TRUE(executor.Execute(plan, &store).ok());

  FaultSpec spec;
  spec.probability = 0.35;
  spec.max_fires = 6;
  spec.seed = 4242 + static_cast<uint64_t>(GetParam());
  FaultInjector::Get().Arm(kFaultExecNode, spec);

  IncrementalState state;
  Rand rng{31337};
  int64_t fallbacks = 0;
  for (int batch = 0; batch < 4; ++batch) {
    auto delta =
        MakeAppendBatch(**store.Get("events"), RandomRows(rng, 9, batch));
    ASSERT_TRUE(delta.ok());
    auto outcome =
        executor.ExecuteAppend(plan, &store, "events", *delta, &state);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    fallbacks += outcome->stats.flows_full_fallback;
  }
  // Read before Reset, which zeroes the counters: the armed site must
  // really have fired on the append path.
  int64_t fires = FaultInjector::Get().fires(kFaultExecNode);
  FaultInjector::Get().Reset();
  EXPECT_GT(fires, 0);

  std::map<std::string, std::string> oracle =
      OracleBits(plan, ColdEvents(*store.Get("events")));
  for (const std::string& name : kObjects) {
    EXPECT_EQ(TableBits(**store.Get(name)), oracle[name]) << name;
  }
}

// Empty batches are a no-op: nothing is replaced, no version retired.
TEST_P(DeltaEquivalenceTest, EmptyBatchChangesNothing) {
  ExecutionPlan plan = PlanUnderTest();
  DataStore store;
  Executor executor(ThreadedOptions());
  ASSERT_TRUE(executor.Execute(plan, &store).ok());
  TablePtr before = *store.Get("events");
  auto delta = MakeAppendBatch(*before, {});
  ASSERT_TRUE(delta.ok());
  auto outcome = executor.ExecuteAppend(plan, &store, "events", *delta,
                                        nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->deltas.empty());
  EXPECT_TRUE(outcome->full_changed.empty());
  EXPECT_EQ(store.Get("events")->get(), before.get());
}

// Cube copy-extension: after each append the endpoint cube is extended
// with DataCube::Append and must answer queries byte-identically to a
// cold Build over the grown endpoint — including when appends merge new
// dictionary entries, and at a cardinality cap that drops indexes.
TEST_P(DeltaEquivalenceTest, CubeAppendMatchesColdBuild) {
  ExecutionPlan plan = PlanUnderTest();
  DataStore store;
  Executor executor(ThreadedOptions());
  ASSERT_TRUE(executor.Execute(plan, &store).ok());

  for (size_t cap : {size_t{10000}, size_t{12}}) {
    auto cube = DataCube::Build(*store.Get("filtered"), cap);
    ASSERT_TRUE(cube.ok());
    std::shared_ptr<const DataCube> extended = *cube;

    IncrementalState state;
    Rand rng{55 + cap};
    for (int batch = 0; batch < 3; ++batch) {
      auto delta = MakeAppendBatch(**store.Get("events"),
                                   RandomRows(rng, 12, batch));
      ASSERT_TRUE(delta.ok());
      auto outcome =
          executor.ExecuteAppend(plan, &store, "events", *delta, &state);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      ASSERT_EQ(outcome->deltas.count("filtered"), 1u);
      auto next = DataCube::Append(extended, *store.Get("filtered"), cap);
      ASSERT_TRUE(next.ok()) << next.status();
      extended = *next;
    }

    auto cold = DataCube::Build(*store.Get("filtered"), cap);
    ASSERT_TRUE(cold.ok());
    std::vector<DataCube::Query> queries;
    DataCube::Query q;
    q.filters = {{"cat", {Value("cat1"), Value("cat4"), Value("fresh0_1")},
                  false}};
    queries.push_back(q);
    q = {};
    q.filters = {{"score", {Value(12.0), Value(40.0)}, true}};
    q.group_by = {"cat"};
    q.aggregates = {AggregateSpec{"sum", "id", "total"},
                    AggregateSpec{"count", "", "n"}};
    queries.push_back(q);
    q = {};
    q.order_by = {SortKey{"score", true}, SortKey{"id", false}};
    q.limit = 17;
    queries.push_back(q);
    for (size_t i = 0; i < queries.size(); ++i) {
      auto fast = extended->Execute(queries[i]);
      auto oracle = (*cold)->Execute(queries[i]);
      ASSERT_TRUE(fast.ok() && oracle.ok());
      EXPECT_EQ(TableBits(**fast), TableBits(**oracle))
          << "query " << i << " cap " << cap;
    }
  }
}

// Concurrent appenders and readers through the Dashboard surface (the
// serialization point the API layer relies on). TSan runs this; the
// final state must still match a cold oracle over the interleaved rows.
TEST_P(DeltaEquivalenceTest, ConcurrentAppendersAndReaders) {
  auto file = ParseFlowFile(FlowText(), "delta_eq_mt");
  ASSERT_TRUE(file.ok()) << file.status();
  Dashboard::Options options;
  options.num_threads = static_cast<size_t>(GetParam());
  auto dashboard = Dashboard::Create(std::move(*file), options);
  ASSERT_TRUE(dashboard.ok()) << dashboard.status();
  ASSERT_TRUE((*dashboard)->Run().ok());
  size_t base_rows = (*(*dashboard)->store().Get("events"))->num_rows();

  constexpr int kAppenders = 3;
  constexpr int kBatches = 4;
  constexpr int kRowsPerBatch = 6;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> read_sink{0};
  std::vector<std::thread> threads;
  for (int a = 0; a < kAppenders; ++a) {
    threads.emplace_back([&, a] {
      Rand rng{static_cast<uint64_t>(1000 + a)};
      for (int b = 0; b < kBatches; ++b) {
        auto result = (*dashboard)->AppendToObject(
            "events", RandomRows(rng, kRowsPerBatch, a * 100 + b));
        if (!result.ok()) ++failures;
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!done.load()) {
        auto filtered = (*dashboard)->EndpointData("filtered");
        if (filtered.ok()) {
          size_t sink = 0;
          for (size_t i = 0; i < (*filtered)->num_rows(); ++i) {
            sink += CellBits((*filtered)->at(i, 0)).size();
          }
          read_sink += sink;
        }
        DataCube::Query q;
        q.group_by = {"cat"};
        q.aggregates = {AggregateSpec{"count", "", "n"}};
        (void)(*dashboard)->CubeQuery("filtered", q);
      }
    });
  }
  for (int a = 0; a < kAppenders; ++a) threads[a].join();
  done = true;
  for (size_t t = kAppenders; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(failures.load(), 0);

  TablePtr events = *(*dashboard)->store().Get("events");
  EXPECT_EQ(events->num_rows(),
            base_rows + kAppenders * kBatches * kRowsPerBatch);

  // The final events table records the actual interleaving, so a cold
  // re-run over it is a deterministic oracle for every derived object.
  ExecutionPlan plan = PlanUnderTest();
  DataStore oracle;
  std::vector<std::vector<Value>> columns;
  for (size_t c = 0; c < events->num_columns(); ++c) {
    columns.push_back(events->column(c));
  }
  oracle.Put("events", *Table::Create(events->schema(), std::move(columns)));
  ASSERT_TRUE(Executor().ExecuteIncremental(plan, &oracle, {}).ok());
  for (const std::string& name : kObjects) {
    EXPECT_EQ(TableBits(**(*dashboard)->store().Get(name)),
              TableBits(**oracle.Get(name)))
        << name;
  }
}

// Optimistic concurrency at the dashboard layer: a stale expected
// version is a kConflict and leaves the object untouched.
TEST(DashboardAppendTest, VersionConflictIsDetected) {
  auto file = ParseFlowFile(FlowText(), "delta_eq_cas");
  ASSERT_TRUE(file.ok()) << file.status();
  auto dashboard = Dashboard::Create(std::move(*file));
  ASSERT_TRUE(dashboard.ok()) << dashboard.status();
  ASSERT_TRUE((*dashboard)->Run().ok());

  uint64_t v0 = (*(*dashboard)->store().Get("events"))->version();
  auto first = (*dashboard)->AppendToObject(
      "events", {{Value("cat0"), Value("w1"), Value(int64_t{5}),
                  Value(30.0)}},
      v0);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GT(first->version, v0);
  EXPECT_EQ(first->prev_versions.at("events"), v0);

  // Re-asserting the stale version now conflicts.
  auto stale = (*dashboard)->AppendToObject(
      "events", {{Value("cat0"), Value("w1"), Value(int64_t{5}),
                  Value(30.0)}},
      v0);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kConflict);
  EXPECT_EQ((*(*dashboard)->store().Get("events"))->version(),
            first->version);
}

INSTANTIATE_TEST_SUITE_P(Threads, DeltaEquivalenceTest,
                         ::testing::Values(1, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace shareinsights
