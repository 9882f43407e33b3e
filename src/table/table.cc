#include "table/table.h"

#include <algorithm>
#include <atomic>
#include <sstream>

namespace shareinsights {

namespace {

std::atomic<uint64_t>& TableVersionCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

uint64_t NextTableVersion() {
  return TableVersionCounter().fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void Table::RestampVersionForRecovery(const TablePtr& table,
                                      uint64_t version) {
  // Safe only because replay owns the table exclusively: nothing has
  // read version_ yet, and the table is published to stores/registries
  // (with their own synchronization) only afterwards.
  const_cast<Table*>(table.get())->version_ = version;
  std::atomic<uint64_t>& counter = TableVersionCounter();
  uint64_t seen = counter.load(std::memory_order_relaxed);
  while (seen < version && !counter.compare_exchange_weak(
                               seen, version, std::memory_order_relaxed)) {
  }
}

Table::Table(Schema schema, std::vector<ColumnData> columns, size_t num_rows)
    : schema_(std::move(schema)),
      typed_(std::move(columns)),
      num_rows_(num_rows),
      version_(NextTableVersion()),
      view_(typed_.size()),
      view_once_(typed_.empty() ? nullptr
                                : std::make_unique<std::once_flag[]>(
                                      typed_.size())) {}

Result<TablePtr> Table::Create(Schema schema,
                               std::vector<std::vector<Value>> columns,
                               bool force_generic) {
  if (columns.size() != schema.num_fields()) {
    return Status::SchemaError(
        "column count " + std::to_string(columns.size()) +
        " does not match schema arity " + std::to_string(schema.num_fields()));
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != rows) {
      return Status::SchemaError("ragged columns: expected " +
                                 std::to_string(rows) + " rows, got " +
                                 std::to_string(col.size()));
    }
  }
  std::vector<ColumnData> typed;
  typed.reserve(columns.size());
  for (auto& col : columns) {
    typed.push_back(ColumnData::Encode(std::move(col), force_generic));
  }
  return TablePtr(new Table(std::move(schema), std::move(typed), rows));
}

Result<TablePtr> Table::FromColumnData(Schema schema,
                                       std::vector<ColumnData> columns) {
  if (columns.size() != schema.num_fields()) {
    return Status::SchemaError(
        "column count " + std::to_string(columns.size()) +
        " does not match schema arity " + std::to_string(schema.num_fields()));
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != rows) {
      return Status::SchemaError("ragged columns: expected " +
                                 std::to_string(rows) + " rows, got " +
                                 std::to_string(col.size()));
    }
  }
  return TablePtr(new Table(std::move(schema), std::move(columns), rows));
}

TablePtr Table::Empty(Schema schema) {
  std::vector<ColumnData> columns(schema.num_fields());
  return TablePtr(new Table(std::move(schema), std::move(columns), 0));
}

const std::vector<Value>& Table::column(size_t i) const {
  const ColumnData& typed = typed_[i];
  if (typed.encoding() == ColumnEncoding::kGeneric) return typed.generic();
  std::call_once(view_once_[i], [&] { view_[i] = typed.Decode(); });
  return view_[i];
}

Result<const std::vector<Value>*> Table::ColumnByName(
    const std::string& name) const {
  SI_ASSIGN_OR_RETURN(size_t idx, schema_.RequireIndex(name));
  return &column(idx);
}

std::vector<Value> Table::Row(size_t row) const {
  std::vector<Value> out;
  out.reserve(typed_.size());
  for (const auto& col : typed_) out.push_back(col.GetValue(row));
  return out;
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& col : typed_) bytes += col.ApproxBytes();
  return bytes;
}

std::string Table::ToDisplayString(size_t max_rows) const {
  size_t rows = std::min(max_rows, num_rows_);
  std::vector<size_t> widths(num_columns());
  std::vector<std::vector<std::string>> cells(rows);
  for (size_t c = 0; c < num_columns(); ++c) {
    widths[c] = schema_.field(c).name.size();
  }
  for (size_t r = 0; r < rows; ++r) {
    cells[r].resize(num_columns());
    for (size_t c = 0; c < num_columns(); ++c) {
      cells[r][c] = at(r, c).ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::ostringstream out;
  auto rule = [&] {
    out << '+';
    for (size_t c = 0; c < num_columns(); ++c) {
      out << std::string(widths[c] + 2, '-') << '+';
    }
    out << '\n';
  };
  rule();
  out << '|';
  for (size_t c = 0; c < num_columns(); ++c) {
    const std::string& name = schema_.field(c).name;
    out << ' ' << name << std::string(widths[c] - name.size(), ' ') << " |";
  }
  out << '\n';
  rule();
  for (size_t r = 0; r < rows; ++r) {
    out << '|';
    for (size_t c = 0; c < num_columns(); ++c) {
      out << ' ' << cells[r][c] << std::string(widths[c] - cells[r][c].size(), ' ')
          << " |";
    }
    out << '\n';
  }
  rule();
  if (rows < num_rows_) {
    out << "(" << num_rows_ - rows << " more rows)\n";
  }
  return out.str();
}

TableBuilder::TableBuilder(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_fields());
}

void TableBuilder::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(num_rows_ + rows);
}

Status TableBuilder::AppendRow(std::vector<Value> row) {
  if (row.size() != columns_.size()) {
    return Status::SchemaError("row arity " + std::to_string(row.size()) +
                               " does not match schema arity " +
                               std::to_string(columns_.size()));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

Result<TablePtr> TableBuilder::Finish() {
  return Table::Create(std::move(schema_), std::move(columns_));
}

Result<TablePtr> InferColumnTypes(const TablePtr& table) {
  std::vector<Field> fields;
  std::vector<std::vector<Value>> columns;
  fields.reserve(table->num_columns());
  columns.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    const auto& col = table->column(c);
    bool all_int = true;
    bool all_numeric = true;
    bool all_bool = true;
    bool any_value = false;
    std::vector<Value> parsed;
    parsed.reserve(col.size());
    for (const Value& v : col) {
      if (v.is_null()) {
        parsed.push_back(v);
        continue;
      }
      any_value = true;
      Value inferred = v.is_string() ? Value::Infer(v.string_value()) : v;
      switch (inferred.type()) {
        case ValueType::kInt64:
          all_bool = false;
          break;
        case ValueType::kDouble:
          all_int = false;
          all_bool = false;
          break;
        case ValueType::kBool:
          all_int = false;
          all_numeric = false;
          break;
        default:
          all_int = all_numeric = all_bool = false;
      }
      parsed.push_back(std::move(inferred));
    }
    ValueType type = ValueType::kString;
    if (any_value) {
      if (all_int) {
        type = ValueType::kInt64;
      } else if (all_numeric) {
        type = ValueType::kDouble;
        for (Value& v : parsed) {
          if (v.is_int64()) v = Value(static_cast<double>(v.int64_value()));
        }
      } else if (all_bool) {
        type = ValueType::kBool;
      } else {
        // Mixed content: keep the original string cells untouched.
        parsed = col;
      }
    }
    fields.push_back(Field{table->schema().field(c).name, type});
    columns.push_back(std::move(parsed));
  }
  return Table::Create(Schema(std::move(fields)), std::move(columns));
}

}  // namespace shareinsights
