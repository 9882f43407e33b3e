// Encoding-equivalence property suite: every operator family and the
// DataCube query path must produce BYTE-identical output whether the
// input tables use typed columnar storage (int64/double/bool arrays,
// dictionary-encoded strings — the kernels' fast path) or the legacy
// generic Value columns (`force_generic`, the correctness oracle), across
// thread counts and morsel sizes. Cells compare by exact bits: doubles
// via their bit patterns (so -0.0 vs +0.0 and NaN payloads are caught),
// not by Value::operator==.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "cube/data_cube.h"
#include "ops/exec_context.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "ops/join.h"
#include "ops/sort_ops.h"
#include "table/column.h"
#include "table/table.h"

namespace shareinsights {
namespace {

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Renders one cell as type tag + exact bits, so two tables serialize
// equal iff they are byte-identical at the Value level.
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

constexpr size_t kRows = 1500;

// The shared logical dataset: every encoding the storage layer supports,
// plus the hostile cases — nulls in every column, -0.0 / NaN doubles,
// a mixed-type column (stays kGeneric on both paths), low- and
// high-cardinality strings.
std::vector<std::vector<Value>> DatasetColumns() {
  std::vector<Value> id, cat, word, score, flag, mixed;
  uint64_t state = 7;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (size_t i = 0; i < kRows; ++i) {
    uint64_t r = next();
    id.push_back(i % 53 == 0 ? Value::Null()
                             : Value(static_cast<int64_t>(r % 200)));
    cat.push_back(i % 31 == 0
                      ? Value::Null()
                      : Value("cat" + std::to_string(r % 9)));
    word.push_back(Value("w" + std::to_string(r % 211) + "x"));
    double d = static_cast<double>(r % 1000) / 8.0;
    if (i % 97 == 0) d = std::nan("");
    if (i % 101 == 0) d = -0.0;
    if (i % 89 == 0) d = 64.0;  // numerically equal to an int64 literal
    score.push_back(i % 61 == 0 ? Value::Null() : Value(d));
    flag.push_back(i % 43 == 0 ? Value::Null() : Value((r & 1) != 0));
    switch (r % 4) {
      case 0:
        mixed.push_back(Value(static_cast<int64_t>(r % 50)));
        break;
      case 1:
        mixed.push_back(Value(static_cast<double>(r % 50)));
        break;
      case 2:
        mixed.push_back(Value("m" + std::to_string(r % 5)));
        break;
      default:
        mixed.push_back(Value::Null());
    }
  }
  return {std::move(id),   std::move(cat),  std::move(word),
          std::move(score), std::move(flag), std::move(mixed)};
}

Schema DatasetSchema() {
  return Schema({Field{"id", ValueType::kInt64},
                 Field{"cat", ValueType::kString},
                 Field{"word", ValueType::kString},
                 Field{"score", ValueType::kDouble},
                 Field{"flag", ValueType::kBool},
                 Field{"mixed", ValueType::kString}});
}

TablePtr Dataset(bool force_generic) {
  return *Table::Create(DatasetSchema(), DatasetColumns(), force_generic);
}

// Join dimension table: overlaps `cat` partially (some build-side keys
// are absent from the probe side and vice versa) and includes a null key
// row, which this engine's joins match against null probe keys.
TablePtr DimTable(bool force_generic) {
  std::vector<Value> key, bonus;
  for (int i = 0; i < 6; ++i) {
    key.push_back(Value("cat" + std::to_string(i)));
    bonus.push_back(Value(static_cast<int64_t>(100 + i)));
  }
  key.push_back(Value("catZZ"));  // absent from the fact table
  bonus.push_back(Value(static_cast<int64_t>(999)));
  key.push_back(Value::Null());
  bonus.push_back(Value(static_cast<int64_t>(-1)));
  return *Table::Create(Schema({Field{"cat", ValueType::kString},
                                Field{"bonus", ValueType::kInt64}}),
                        {std::move(key), std::move(bonus)}, force_generic);
}

class EncodingEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {
 protected:
  void SetUp() override {
    typed_ = Dataset(false);
    generic_ = Dataset(true);
    // The premise of the suite: the two tables really take different
    // storage paths.
    ASSERT_EQ(typed_->typed_column(0).encoding(), ColumnEncoding::kInt64);
    ASSERT_EQ(typed_->typed_column(1).encoding(), ColumnEncoding::kDict);
    ASSERT_EQ(typed_->typed_column(2).encoding(), ColumnEncoding::kDict);
    ASSERT_EQ(typed_->typed_column(3).encoding(), ColumnEncoding::kDouble);
    ASSERT_EQ(typed_->typed_column(4).encoding(), ColumnEncoding::kBool);
    ASSERT_EQ(typed_->typed_column(5).encoding(), ColumnEncoding::kGeneric);
    for (size_t c = 0; c < generic_->num_columns(); ++c) {
      ASSERT_EQ(generic_->typed_column(c).encoding(),
                ColumnEncoding::kGeneric);
    }
    int threads = std::get<0>(GetParam());
    if (threads > 1) {
      pool_ = std::make_unique<ThreadPool>(threads);
      ctx_.pool = pool_.get();
    }
    size_t morsel = std::get<1>(GetParam());
    if (morsel > 0) ctx_.morsel_rows = morsel;
  }

  // Runs `op` over the typed tables and over the forced-generic oracle
  // tables; asserts byte-identical results.
  void ExpectEquivalent(const TableOperator& op,
                        const std::vector<TablePtr>& typed_inputs,
                        const std::vector<TablePtr>& generic_inputs) {
    Result<TablePtr> fast = op.Execute(typed_inputs, ctx_);
    ASSERT_TRUE(fast.ok()) << op.name() << ": " << fast.status();
    Result<TablePtr> oracle = op.Execute(generic_inputs, ctx_);
    ASSERT_TRUE(oracle.ok()) << op.name() << ": " << oracle.status();
    EXPECT_EQ(TableBits(**fast), TableBits(**oracle)) << op.name();
  }

  void ExpectEquivalent(const TableOperator& op) {
    ExpectEquivalent(op, {typed_}, {generic_});
  }

  TablePtr typed_;
  TablePtr generic_;
  std::unique_ptr<ThreadPool> pool_;
  ExecContext ctx_;
};

TEST_P(EncodingEquivalenceTest, FilterExpression) {
  auto op = FilterExpressionOp::Create("score < 50");
  ASSERT_TRUE(op.ok());
  ExpectEquivalent(**op);
}

TEST_P(EncodingEquivalenceTest, FilterCompare) {
  using Cmp = FilterCompareOp::Cmp;
  for (Cmp cmp : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                  Cmp::kGe}) {
    ExpectEquivalent(FilterCompareOp("cat", cmp, Value("cat4")));
    ExpectEquivalent(FilterCompareOp("cat", cmp, Value("catNOPE")));
    // Non-string literal against a string column: decided by type rank.
    ExpectEquivalent(FilterCompareOp("cat", cmp, Value(int64_t{3})));
    ExpectEquivalent(FilterCompareOp("id", cmp, Value(int64_t{100})));
    // int64 cells against a double literal compare numerically.
    ExpectEquivalent(FilterCompareOp("id", cmp, Value(100.0)));
    ExpectEquivalent(FilterCompareOp("score", cmp, Value(64.0)));
    ExpectEquivalent(FilterCompareOp("score", cmp, Value(int64_t{64})));
    ExpectEquivalent(FilterCompareOp("flag", cmp, Value(true)));
    ExpectEquivalent(FilterCompareOp("mixed", cmp, Value("m2")));
  }
  ExpectEquivalent(FilterCompareOp("cat", Cmp::kContains, Value("at7")));
  ExpectEquivalent(FilterCompareOp("word", Cmp::kContains, Value("3x")));
  ExpectEquivalent(FilterCompareOp("id", Cmp::kContains, Value("7")));
}

TEST_P(EncodingEquivalenceTest, FilterValues) {
  using CF = FilterValuesOp::ColumnFilter;
  // Dict membership: hits, a miss, a null, and a non-string value.
  ExpectEquivalent(FilterValuesOp({CF{
      "cat",
      {Value("cat1"), Value("cat5"), Value("nope"), Value::Null(),
       Value(int64_t{2})},
      false}}));
  // Dict range (string bounds), including bounds not in the dictionary.
  ExpectEquivalent(
      FilterValuesOp({CF{"cat", {Value("cat2"), Value("cat6")}, true}}));
  ExpectEquivalent(
      FilterValuesOp({CF{"word", {Value("w10"), Value("w19zzz")}, true}}));
  // Dict range with non-string bounds (resolved by type rank).
  ExpectEquivalent(
      FilterValuesOp({CF{"cat", {Value(int64_t{0}), Value("cat6")}, true}}));
  ExpectEquivalent(
      FilterValuesOp({CF{"cat", {Value("cat2"), Value(int64_t{9})}, true}}));
  // Int64 membership, with a numerically-equal double in the set.
  ExpectEquivalent(FilterValuesOp(
      {CF{"id", {Value(int64_t{10}), Value(20.0), Value::Null()}, false}}));
  // Int64 range with mixed-type bounds.
  ExpectEquivalent(
      FilterValuesOp({CF{"id", {Value(int64_t{50}), Value(150.5)}, true}}));
  // Double membership with an int64 in the set; double range.
  ExpectEquivalent(FilterValuesOp(
      {CF{"score", {Value(int64_t{64}), Value(12.5), Value::Null()}, false}}));
  ExpectEquivalent(
      FilterValuesOp({CF{"score", {Value(10.0), Value(int64_t{80})}, true}}));
  // Bool + generic columns, and the multi-filter intersection.
  ExpectEquivalent(FilterValuesOp({CF{"flag", {Value(true)}, false}}));
  ExpectEquivalent(FilterValuesOp(
      {CF{"mixed", {Value("m1"), Value(int64_t{7}), Value(7.0)}, false}}));
  ExpectEquivalent(FilterValuesOp(
      {CF{"cat", {Value("cat1"), Value("cat2"), Value("cat3")}, false},
       CF{"id", {Value(int64_t{20}), Value(int64_t{180})}, true}}));
}

TEST_P(EncodingEquivalenceTest, GroupBy) {
  const std::vector<AggregateSpec> typed = {
      AggregateSpec{"sum", "id", "sum_id"}, AggregateSpec{"count", "", "n"},
      AggregateSpec{"avg", "score", "avg_score"},
      AggregateSpec{"min", "word", "min_word"},
      AggregateSpec{"max", "score", "max_score"}};
  // No typed form: a dict key takes the packed-key Aggregator loop.
  const std::vector<AggregateSpec> untyped = {
      AggregateSpec{"first", "score", "first_score"},
      AggregateSpec{"last", "word", "last_word"},
      AggregateSpec{"count_distinct", "id", "ids"}};
  auto run = [&](std::vector<std::string> keys,
                 const std::vector<AggregateSpec>& aggregates) {
    auto op = GroupByOp::Create(std::move(keys), aggregates, false);
    ASSERT_TRUE(op.ok()) << op.status();
    ExpectEquivalent(**op);
  };
  run({"cat"}, typed);              // dict key
  run({"cat", "flag"}, typed);      // dict + bool composite
  run({"id"}, typed);               // int64 key with nulls
  run({"score"}, typed);            // double key: NaN and -0.0 group once
  run({"mixed"}, typed);            // generic fallback on both paths
  run({"cat", "mixed"}, typed);     // packed rejected by the generic column
  run({"cat"}, untyped);
  run({"cat", "flag"}, untyped);
  run({"mixed"}, untyped);
}

TEST_P(EncodingEquivalenceTest, GroupByOrderedByAggregate) {
  auto op = GroupByOp::Create(
      {"cat"}, {AggregateSpec{"sum", "id", "sum_id"}}, true);
  ASSERT_TRUE(op.ok());
  ExpectEquivalent(**op);
}

TEST_P(EncodingEquivalenceTest, Join) {
  TablePtr typed_dim = DimTable(false);
  TablePtr generic_dim = DimTable(true);
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                        JoinKind::kRightOuter, JoinKind::kFullOuter}) {
    auto op = JoinOp::Create({"cat"}, {"cat"}, kind, {});
    ASSERT_TRUE(op.ok());
    ExpectEquivalent(**op, {typed_, typed_dim}, {generic_, generic_dim});
    // Mixed storage across sides: typed probe against generic build (and
    // vice versa) must also agree with the all-generic oracle.
    ExpectEquivalent(**op, {typed_, generic_dim}, {generic_, generic_dim});
    ExpectEquivalent(**op, {generic_, typed_dim}, {generic_, generic_dim});
  }
  // Self join on an int64 key with nulls.
  auto self = JoinOp::Create({"id"}, {"id"}, JoinKind::kInner,
                             {JoinOp::Projection{0, "id", "id"},
                              JoinOp::Projection{1, "cat", "rcat"}});
  ASSERT_TRUE(self.ok());
  TablePtr small_typed = *LimitOp(64).Execute({typed_});
  TablePtr small_generic =
      *Table::Create(small_typed->schema(),
                     [&] {
                       std::vector<std::vector<Value>> cols;
                       for (size_t c = 0; c < small_typed->num_columns(); ++c) {
                         cols.push_back(small_typed->column(c));
                       }
                       return cols;
                     }(),
                     true);
  ExpectEquivalent(**self, {small_typed, small_typed},
                   {small_generic, small_generic});
}

TEST_P(EncodingEquivalenceTest, Sort) {
  ExpectEquivalent(SortOp({SortKey{"cat", false}, SortKey{"score", true},
                           SortKey{"id", false}}));
  ExpectEquivalent(SortOp({SortKey{"mixed", false}}));
}

TEST_P(EncodingEquivalenceTest, TopN) {
  ExpectEquivalent(TopNOp({"cat"}, {SortKey{"score", true}}, 3));
  ExpectEquivalent(TopNOp({"cat", "flag"}, {SortKey{"id", false}}, 2));
  ExpectEquivalent(TopNOp({"mixed"}, {SortKey{"score", false}}, 1));
}

TEST_P(EncodingEquivalenceTest, Distinct) {
  ExpectEquivalent(DistinctOp({"cat"}));
  ExpectEquivalent(DistinctOp({"cat", "flag"}));
  ExpectEquivalent(DistinctOp({"score"}));  // NaN / -0.0 dedup
  ExpectEquivalent(DistinctOp());           // whole row, incl. generic col
}

TEST_P(EncodingEquivalenceTest, LimitAndUnion) {
  ExpectEquivalent(LimitOp(100, 37));
  UnionOp union_op(2);
  ExpectEquivalent(union_op, {typed_, typed_}, {generic_, generic_});
}

// The cube path: build over typed vs generic storage, query through
// membership, ranges, group-by, ordering and limit. `max_cardinality` 40
// additionally forces the too-wide-dictionary scan fallback for every
// string column (cat has 9 codes, word has 211).
TEST_P(EncodingEquivalenceTest, CubeQueries) {
  for (size_t max_cardinality : {size_t{10000}, size_t{40}}) {
    auto typed_cube = DataCube::Build(typed_, max_cardinality);
    auto generic_cube = DataCube::Build(generic_, max_cardinality);
    ASSERT_TRUE(typed_cube.ok());
    ASSERT_TRUE(generic_cube.ok());

    std::vector<DataCube::Query> queries;
    DataCube::Query q;
    q.filters = {{"cat", {Value("cat1"), Value("cat7"), Value::Null()},
                  false}};
    queries.push_back(q);
    q = {};
    q.filters = {{"word", {Value("w100x"), Value("w199x")}, true},
                 {"score", {Value(5.0), Value(int64_t{90})}, true}};
    queries.push_back(q);
    q = {};
    q.filters = {{"id", {Value(int64_t{30}), Value(170.0)}, true},
                 {"cat", {Value("cat0"), Value("cat2"), Value("cat4"),
                          Value("missing")},
                  false}};
    q.group_by = {"cat", "flag"};
    q.aggregates = {AggregateSpec{"sum", "id", "total"},
                    AggregateSpec{"avg", "score", "mean"}};
    q.orderby_aggregates = true;
    queries.push_back(q);
    q = {};
    q.filters = {{"flag", {Value(true)}, false}};
    q.order_by = {SortKey{"score", true}, SortKey{"id", false}};
    q.limit = 25;
    queries.push_back(q);
    q = {};  // no filters: whole-table slice
    q.group_by = {"word"};
    q.aggregates = {AggregateSpec{"count", "", "n"}};
    queries.push_back(q);

    for (size_t i = 0; i < queries.size(); ++i) {
      Result<TablePtr> fast = (*typed_cube)->Execute(queries[i], ctx_);
      ASSERT_TRUE(fast.ok()) << "query " << i << ": " << fast.status();
      Result<TablePtr> oracle = (*generic_cube)->Execute(queries[i], ctx_);
      ASSERT_TRUE(oracle.ok()) << "query " << i << ": " << oracle.status();
      EXPECT_EQ(TableBits(**fast), TableBits(**oracle))
          << "query " << i << " max_cardinality " << max_cardinality;
    }
  }
}

// Gathering through typed storage must round-trip exact bits, and the
// encoded-size accounting must follow the encoding.
TEST_P(EncodingEquivalenceTest, GatherRoundTrip) {
  TablePtr slice = *LimitOp(500, 250).Execute({typed_}, ctx_);
  TablePtr oracle = *LimitOp(500, 250).Execute({generic_}, ctx_);
  EXPECT_EQ(TableBits(*slice), TableBits(*oracle));
  // Gather output preserves the input's encodings (shared dictionary).
  EXPECT_EQ(slice->typed_column(1).encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(slice->typed_column(1).shared_dict().get(),
            typed_->typed_column(1).shared_dict().get());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncodingEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 4, 8),
                       ::testing::Values(size_t{64}, size_t{1024},
                                         size_t{0})),
    [](const ::testing::TestParamInfo<std::tuple<int, size_t>>& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) +
             "_morsel" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace shareinsights
