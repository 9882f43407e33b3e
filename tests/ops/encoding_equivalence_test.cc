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
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/date_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "cube/data_cube.h"
#include "expr/expr.h"
#include "ops/exec_context.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "ops/join.h"
#include "ops/map_ops.h"
#include "ops/project.h"
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

// Adds the map operators' inputs to the shared dataset: `when`, a
// timestamp column with nulls, and `text`, free text whose words hit
// the test dictionaries (including a two-word alias and stopwords).
TablePtr MapDataset(bool force_generic) {
  std::vector<std::vector<Value>> columns = DatasetColumns();
  std::vector<Value> when, text;
  uint64_t state = 23;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const char* kWords[] = {"the", "rohit", "sharma", "kohli", "at", "mumbai",
                          "pune", "and", "wankhede", "delhi", "great", "x"};
  for (size_t i = 0; i < kRows; ++i) {
    uint64_t r = next();
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "2015-%02d-%02d %02d:%02d:00",
                  static_cast<int>(r % 12 + 1), static_cast<int>(r % 28 + 1),
                  static_cast<int>(r % 24), static_cast<int>(r % 60));
    when.push_back(i % 37 == 0 ? Value::Null() : Value(stamp));
    std::string line;
    for (int w = 0, n = static_cast<int>(r % 6); w < n; ++w) {
      if (w > 0) line += ' ';
      line += kWords[(r >> (4 * w)) % 12];
    }
    text.push_back(i % 41 == 0 ? Value::Null() : Value(line));
  }
  columns.push_back(std::move(when));
  columns.push_back(std::move(text));
  std::vector<Field> fields = DatasetSchema().fields();
  fields.push_back(Field{"when", ValueType::kString});
  fields.push_back(Field{"text", ValueType::kString});
  return *Table::Create(Schema(std::move(fields)), std::move(columns),
                        force_generic);
}

// Reference copies of the map family, map:expression and project as
// they were implemented before they kept the input's encoded columns:
// each decodes every input column and re-encodes the whole output
// through Table::Create (or row by row through TableBuilder), one row at
// a time on the calling thread. The rewritten operators must match them
// bit for bit, errors included.
namespace reference {

Result<TablePtr> AppendColumn(const TablePtr& input,
                              const std::string& output_column,
                              ValueType output_type,
                              std::vector<Value> values) {
  Schema out_schema = input->schema();
  out_schema.AddField(Field{output_column, output_type});
  std::vector<std::vector<Value>> columns;
  auto existing = input->schema().IndexOf(output_column);
  for (size_t c = 0; c < input->num_columns(); ++c) {
    if (existing.has_value() && c == *existing) {
      columns.push_back(std::move(values));
    } else {
      columns.push_back(input->column(c));
    }
  }
  if (!existing.has_value()) columns.push_back(std::move(values));
  return Table::Create(std::move(out_schema), std::move(columns));
}

Result<TablePtr> ExplodeColumn(
    const TablePtr& input, const std::string& output_column,
    const std::vector<std::vector<std::string>>& matches) {
  Schema out_schema = input->schema();
  out_schema.AddField(Field{output_column, ValueType::kString});
  TableBuilder builder(out_schema);
  bool appends = !input->schema().Contains(output_column);
  auto out_idx = out_schema.IndexOf(output_column);
  for (size_t r = 0; r < input->num_rows(); ++r) {
    for (const std::string& match : matches[r]) {
      std::vector<Value> row = input->Row(r);
      if (appends) {
        row.push_back(Value(match));
      } else {
        row[*out_idx] = Value(match);
      }
      SI_RETURN_IF_ERROR(builder.AppendRow(std::move(row)));
    }
  }
  return builder.Finish();
}

using ExtractFn = std::function<std::vector<std::string>(const std::string&)>;

Result<TablePtr> Explode(const TablePtr& input, const std::string& transform,
                         const std::string& output, const ExtractFn& fn) {
  SI_ASSIGN_OR_RETURN(size_t idx, input->schema().RequireIndex(transform));
  std::vector<std::vector<std::string>> matches(input->num_rows());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    const Value& v = input->at(r, idx);
    if (!v.is_null()) matches[r] = fn(v.ToString());
  }
  return ExplodeColumn(input, output, matches);
}

Result<TablePtr> MapDate(const TablePtr& input, const std::string& transform,
                         const std::string& input_format,
                         const std::string& output_format,
                         const std::string& output) {
  SI_ASSIGN_OR_RETURN(size_t idx, input->schema().RequireIndex(transform));
  std::vector<Value> out(input->num_rows());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    const Value& v = input->at(r, idx);
    if (v.is_null()) continue;
    Result<DateTime> parsed = ParseDateTime(v.ToString(), input_format);
    if (!parsed.ok()) {
      return parsed.status().WithContext("map:date on column '" + transform +
                                         "' row " + std::to_string(r));
    }
    out[r] = Value(FormatDateTime(*parsed, output_format));
  }
  return AppendColumn(input, output, ValueType::kString, std::move(out));
}

Result<TablePtr> MapScalar(const TablePtr& input, const std::string& op_name,
                           const ScalarOpFn& fn, const std::string& transform,
                           const std::string& output,
                           const std::map<std::string, std::string>& config) {
  SI_ASSIGN_OR_RETURN(size_t idx, input->schema().RequireIndex(transform));
  std::vector<Value> out(input->num_rows());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    Result<Value> v = fn(input->at(r, idx), config);
    if (!v.ok()) {
      return v.status().WithContext("map:" + op_name + " row " +
                                    std::to_string(r));
    }
    out[r] = std::move(*v);
  }
  return AppendColumn(input, output, ValueType::kString, std::move(out));
}

Result<TablePtr> ExtractWordsOf(const TablePtr& input,
                                const std::string& transform,
                                const std::string& output,
                                size_t min_length) {
  static const std::unordered_set<std::string> kStopwords = {
      "the", "and", "for", "are", "but", "not", "you", "all", "can", "had",
      "her", "was", "one", "our", "out", "day", "get", "has", "him", "his",
      "how", "now", "see", "two", "who", "with", "this", "that", "from",
      "they", "will", "have", "what", "when", "your", "just", "about",
      "there", "their", "them", "then", "than", "were", "been", "being",
      "http", "https", "www", "com"};
  return Explode(input, transform, output, [&](const std::string& text) {
    std::vector<std::string> words;
    for (std::string& word : ExtractWords(text)) {
      if (word.size() < min_length || kStopwords.count(word) > 0) continue;
      words.push_back(std::move(word));
    }
    return words;
  });
}

Result<TablePtr> Project(const TablePtr& input,
                         const std::vector<ProjectOp::Mapping>& mappings) {
  std::vector<Field> fields;
  std::vector<std::vector<Value>> columns;
  for (const ProjectOp::Mapping& m : mappings) {
    SI_ASSIGN_OR_RETURN(size_t idx, input->schema().RequireIndex(m.input));
    fields.push_back(Field{m.output, input->schema().field(idx).type});
    columns.push_back(input->column(idx));
  }
  return Table::Create(Schema(std::move(fields)), std::move(columns));
}

Result<TablePtr> ExpressionColumn(const TablePtr& input,
                                  const std::string& output_column,
                                  const std::string& expression) {
  SI_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(expression));
  SI_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(expr, input->schema()));
  std::vector<Value> computed(input->num_rows());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    SI_ASSIGN_OR_RETURN(computed[r], bound.Eval(*input, r));
  }
  std::vector<std::vector<Value>> columns;
  Schema in_schema = input->schema();
  std::vector<Field> fields;
  auto existing = in_schema.IndexOf(output_column);
  for (size_t c = 0; c < input->num_columns(); ++c) {
    fields.push_back(in_schema.field(c));
    if (existing.has_value() && c == *existing) {
      columns.push_back(std::move(computed));
    } else {
      columns.push_back(input->column(c));
    }
  }
  if (!existing.has_value()) {
    fields.push_back(Field{output_column, ValueType::kString});
    columns.push_back(std::move(computed));
  }
  return Table::Create(Schema(std::move(fields)), std::move(columns));
}

}  // namespace reference

using ReferenceFn = std::function<Result<TablePtr>(const TablePtr&)>;

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

  // Runs `op` over `typed` and over its forced-generic twin, and the
  // pre-rewrite `reference` over each of the same inputs: every run must
  // give byte-identical tables, or the same error. Returns the
  // reference's result on `typed`, so callers can pin the case's premise.
  Result<TablePtr> ExpectMatchesReference(const TableOperator& op,
                                          const ReferenceFn& reference,
                                          const TablePtr& typed,
                                          const TablePtr& generic) {
    for (const TablePtr& input : {generic, typed}) {
      Result<TablePtr> want = reference(input);
      Result<TablePtr> got = op.Execute({input}, ctx_);
      EXPECT_EQ(got.ok(), want.ok())
          << op.name() << ": " << got.status() << " vs " << want.status();
      if (!want.ok() || !got.ok()) {
        EXPECT_EQ(got.status().ToString(), want.status().ToString());
      } else {
        EXPECT_EQ(TableBits(**got), TableBits(**want)) << op.name();
      }
      if (input == typed) return want;
    }
    return Status::Internal("unreachable");
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

// The map family against its pre-rewrite reference, over typed and
// generic storage: new and overwritten output columns, null transform
// cells, a generic (mixed) transform column, rows and whole morsels
// without a match, an empty exploded output, and mid-table errors.
TEST_P(EncodingEquivalenceTest, MapFamily) {
  const TablePtr typed = MapDataset(false);
  const TablePtr generic = MapDataset(true);
  ASSERT_EQ(typed->typed_column(6).encoding(), ColumnEncoding::kDict);
  const std::string in_fmt = "yyyy-MM-dd HH:mm:ss";
  auto date = [&](const std::string& transform, const std::string& output) {
    return ExpectMatchesReference(
        MapDateOp(transform, in_fmt, "dd/MM/yyyy", output),
        [&](const TablePtr& in) {
          return reference::MapDate(in, transform, in_fmt, "dd/MM/yyyy",
                                    output);
        },
        typed, generic);
  };
  ASSERT_TRUE(date("when", "day").ok());
  date("when", "when");  // overwrite the transform column itself
  date("when", "id");    // overwrite an int64 column with strings
  EXPECT_FALSE(date("cat", "day").ok());  // the same first failing row

  // Returns the number of rows the extract op's reference produced.
  auto extract = [&](const std::string& transform, const std::string& dict,
                     const std::string& output) -> size_t {
    Dictionary d = *Dictionary::FromText(dict);
    Result<TablePtr> want = ExpectMatchesReference(
        MapExtractOp(transform, d, output),
        [&](const TablePtr& in) {
          return reference::Explode(
              in, transform, output,
              [&](const std::string& text) { return d.Extract(text); });
        },
        typed, generic);
    ExpectMatchesReference(
        MapExtractLocationOp(transform, d, output),
        [&](const TablePtr& in) {
          return reference::Explode(
              in, transform, output, [&](const std::string& text) {
                std::vector<std::string> found = d.Extract(text);
                if (found.size() > 1) found.resize(1);
                return found;
              });
        },
        typed, generic);
    return want.ok() ? (*want)->num_rows() : 0;
  };
  const std::string players =
      "Rohit Sharma: rohit sharma, rohit\nVirat Kohli: kohli\n"
      "Maharashtra: mumbai, pune, wankhede\nDelhi: delhi";
  EXPECT_GT(extract("text", players, "player"), kRows / 2);
  extract("text", players, "cat");  // overwrite a dict column
  EXPECT_GT(extract("cat", "cat3\nEight: cat8", "picked"), 0u);
  EXPECT_GT(extract("mixed", "m2\nfour: 4", "m"), 0u);  // generic column
  // Most 64-row morsels match nothing; one row in ~200 does.
  size_t rare = extract("word", "w7x", "rare");
  EXPECT_GT(rare, 0u);
  EXPECT_LT(rare, kRows / 64 / 2);
  EXPECT_EQ(extract("word", "nothing: zzz", "none"), 0u);  // empty output

  auto words = [&](const std::string& transform, const std::string& output,
                   size_t min_length) -> size_t {
    Result<TablePtr> want = ExpectMatchesReference(
        MapExtractWordsOp(transform, output, min_length),
        [&](const TablePtr& in) {
          return reference::ExtractWordsOf(in, transform, output,
                                           min_length);
        },
        typed, generic);
    return want.ok() ? (*want)->num_rows() : 0;
  };
  EXPECT_GT(words("text", "token", 3), kRows);
  words("text", "text", 5);  // overwrite the transform column
  EXPECT_GT(words("mixed", "token", 1), 0u);
  EXPECT_EQ(words("cat", "token", 10), 0u);  // no token is long enough

  ScalarOpFn tag = [](const Value& v,
                      const std::map<std::string, std::string>& config)
      -> Result<Value> {
    if (v.is_null()) return Value("none");
    if (v.is_int64() && v.int64_value() == 13) {
      return Status::InvalidArgument("unlucky");
    }
    return Value(v.ToString() + config.at("suffix"));
  };
  const std::map<std::string, std::string> config = {{"suffix", "!"}};
  auto scalar = [&](const std::string& transform, const std::string& output) {
    return ExpectMatchesReference(
        MapScalarOp("tag", tag, transform, output, config),
        [&](const TablePtr& in) {
          return reference::MapScalar(in, "tag", tag, transform, output,
                                      config);
        },
        typed, generic);
  };
  ASSERT_TRUE(scalar("mixed", "tagged").ok());
  scalar("score", "cat");                        // overwrite a dict column
  EXPECT_FALSE(scalar("id", "tagged").ok());  // fails at the first id 13
}

TEST_P(EncodingEquivalenceTest, Project) {
  using M = ProjectOp::Mapping;
  const std::vector<std::vector<M>> cases = {
      {M{"mixed", "mixed"}, M{"cat", "cat"}},
      {M{"score", "s"}, M{"cat", "c"}, M{"cat", "c2"}, M{"id", "id"}},
      {M{"id", "id"},
       M{"cat", "cat"},
       M{"word", "word"},
       M{"score", "score"},
       M{"flag", "flag"},
       M{"mixed", "mixed"}},
      {M{"missing", "x"}}};
  for (const std::vector<M>& mappings : cases) {
    ExpectMatchesReference(
        ProjectOp(mappings),
        [&](const TablePtr& in) { return reference::Project(in, mappings); },
        typed_, generic_);
  }
  // The projection shares the input's encoded columns.
  TablePtr out = *ProjectOp(cases[1]).Execute({typed_}, ctx_);
  EXPECT_EQ(out->typed_column(1).shared_dict().get(),
            typed_->typed_column(1).shared_dict().get());
}

TEST_P(EncodingEquivalenceTest, ExpressionColumn) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"calc", "score * 2 + id"},
      {"id", "id + 1"},       // overwrite keeps the declared int64 type
      {"cat", "score > 10"},  // overwrite a dict column with bools
      {"copy", "mixed"},      // generic source column
      {"bad", "nope + 1"}};   // unbound column: the same error
  for (const auto& [output, expression] : cases) {
    auto op = ExpressionColumnOp::Create(output, expression);
    ASSERT_TRUE(op.ok()) << op.status();
    Result<TablePtr> want = ExpectMatchesReference(
        **op,
        [&](const TablePtr& in) {
          return reference::ExpressionColumn(in, output, expression);
        },
        typed_, generic_);
    EXPECT_EQ(want.ok(), output != "bad") << want.status();
  }
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
