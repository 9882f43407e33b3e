#include "table/append.h"

#include <cmath>
#include <cstdint>
#include <utility>

#include "table/column.h"

namespace shareinsights {

Result<TablePtr> ConcatTables(const TablePtr& base, const TablePtr& delta) {
  if (base == nullptr || delta == nullptr) {
    return Status::InvalidArgument("cannot concat a null table");
  }
  if (base->num_columns() != delta->num_columns()) {
    return Status::SchemaError(
        "append arity mismatch: base has " +
        std::to_string(base->num_columns()) + " columns, delta has " +
        std::to_string(delta->num_columns()));
  }
  if (delta->num_rows() == 0) return base;
  std::vector<ColumnData> columns;
  columns.reserve(base->num_columns());
  for (size_t c = 0; c < base->num_columns(); ++c) {
    columns.push_back(
        ColumnData::Concat(base->typed_column(c), delta->typed_column(c)));
  }
  return Table::FromColumnData(base->schema(), std::move(columns));
}

namespace {

// Coercion target for one column of an append batch: the type the
// MATERIALIZED base column's encoding implies (a dictionary column
// takes strings, an int64 column integers, ...), not the declared field
// type — schemas built from bare names default every field to kString,
// and stringifying the cells of a typed numeric column would degrade it
// to kGeneric on concat. Wherever the schema's types were inferred from
// the data the two agree anyway. A kGeneric base passes cells through
// (mixed storage absorbs anything, matching a cold re-encode); an
// all-null base carries no type information — its kInt64 storage is
// just Encode's canonical layout — so the declared type governs.
ValueType CoerceTarget(const Field& field, const ColumnData& base_col) {
  bool all_null = true;
  for (size_t r = 0; r < base_col.size() && all_null; ++r) {
    all_null = base_col.IsNull(r);
  }
  if (all_null) return field.type;
  switch (base_col.encoding()) {
    case ColumnEncoding::kBool:
      return ValueType::kBool;
    case ColumnEncoding::kInt64:
      return ValueType::kInt64;
    case ColumnEncoding::kDouble:
      return ValueType::kDouble;
    case ColumnEncoding::kDict:
      return ValueType::kString;
    case ColumnEncoding::kGeneric:
      return ValueType::kNull;
  }
  return ValueType::kNull;
}

Result<Value> CoerceCell(const Value& v, const std::string& column,
                         ValueType target) {
  if (v.is_null()) return v;
  switch (target) {
    case ValueType::kInt64: {
      if (v.is_int64()) return v;
      if (v.is_double()) {
        double d = v.double_value();
        if (std::nearbyint(d) == d && std::abs(d) <= 9.0e15) {
          return Value(static_cast<int64_t>(d));
        }
        return Status::InvalidArgument(
            "column '" + column + "' expects int64, got non-integral " +
            v.ToString());
      }
      if (v.is_string()) {
        Value inferred = Value::Infer(v.string_value());
        if (inferred.is_int64()) return inferred;
      }
      break;
    }
    case ValueType::kDouble: {
      if (v.is_double()) return v;
      if (v.is_int64()) return Value(static_cast<double>(v.int64_value()));
      if (v.is_string()) {
        Value inferred = Value::Infer(v.string_value());
        if (inferred.is_double()) return inferred;
        if (inferred.is_int64()) {
          return Value(static_cast<double>(inferred.int64_value()));
        }
      }
      break;
    }
    case ValueType::kBool: {
      if (v.is_bool()) return v;
      if (v.is_string()) {
        Value inferred = Value::Infer(v.string_value());
        if (inferred.is_bool()) return inferred;
      }
      break;
    }
    case ValueType::kString: {
      if (v.is_string()) return v;
      // Numeric/bool cells serialize into a string column the same way
      // the readers would have ingested them.
      return Value(v.ToString());
    }
    case ValueType::kNull:
      return v;
  }
  return Status::InvalidArgument("column '" + column + "' expects " +
                                 ValueTypeName(target) + ", got " +
                                 v.ToString());
}

// True when `base_col` is a dictionary column and some cell of `cells`
// is a string missing from its dictionary.
bool HasNewString(const ColumnData& base_col,
                  const std::vector<Value>& cells) {
  if (base_col.encoding() != ColumnEncoding::kDict) return false;
  for (const Value& v : cells) {
    if (v.is_string() &&
        base_col.FindCode(v.string_value()) == ColumnData::kNoCode) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<TablePtr> MakeAppendBatch(const Table& base,
                                 std::vector<std::vector<Value>> rows) {
  const Schema& schema = base.schema();
  std::vector<std::vector<Value>> cells(schema.num_fields());
  std::vector<ValueType> targets;
  targets.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    targets.push_back(CoerceTarget(schema.field(c), base.typed_column(c)));
    cells[c].reserve(rows.size());
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != schema.num_fields()) {
      return Status::SchemaError(
          "append row " + std::to_string(r) + " has " +
          std::to_string(rows[r].size()) + " cells, schema expects " +
          std::to_string(schema.num_fields()));
    }
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      SI_ASSIGN_OR_RETURN(
          Value cell,
          CoerceCell(rows[r][c], schema.field(c).name, targets[c]));
      cells[c].push_back(std::move(cell));
    }
  }
  // A dictionary column that brings a new string gets its own sorted
  // dictionary of just the batch's distinct strings; ConcatTables merges
  // it into the base's in one sorted-union pass, so the work here
  // follows the batch, not the base dictionary. Every other column is
  // grown in place from the base column's shape (encoding + shared
  // dictionary): a batch of known strings concats through the
  // same-dictionary fast path, and a single-row append never degrades a
  // typed column to kGeneric.
  std::vector<ColumnData> columns;
  columns.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const ColumnData& base_col = base.typed_column(c);
    if (HasNewString(base_col, cells[c])) {
      columns.push_back(ColumnData::Encode(std::move(cells[c])));
      continue;
    }
    ColumnData col = ColumnData::AllocateLike(base_col, 0);
    for (const Value& cell : cells[c]) col.AppendValue(cell);
    columns.push_back(std::move(col));
  }
  return Table::FromColumnData(schema, std::move(columns));
}

}  // namespace shareinsights
