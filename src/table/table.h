#ifndef SHAREINSIGHTS_TABLE_TABLE_H_
#define SHAREINSIGHTS_TABLE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "table/column.h"
#include "table/schema.h"

namespace shareinsights {

class Table;
using TablePtr = std::shared_ptr<const Table>;

/// In-memory columnar table: the materialized form of every data object
/// (source, sink, endpoint) in a flow. Tables are immutable once built;
/// operators produce new tables, which makes caching and concurrent reads
/// by the executor and the data cube safe without locking.
///
/// Storage is typed per column (see ColumnData): primitives as raw
/// arrays, strings dictionary-encoded, mixed-type columns as generic
/// Value vectors. Hot operator kernels read the typed storage via
/// typed_column(); project and the column-adding map operators keep the
/// input's ColumnData (shared dictionaries) and encode only a new
/// column. The Value-based at()/column() API remains as a compatibility
/// view for the operators that still read Values, decoded lazily per
/// column and cached (thread-safe, decoded at most once).
class Table {
 public:
  /// Builds a table from columns. Every column must match num_rows.
  /// `force_generic` pins every column to the legacy Value representation
  /// — the encoding-equivalence suite's oracle path.
  static Result<TablePtr> Create(Schema schema,
                                 std::vector<std::vector<Value>> columns,
                                 bool force_generic = false);

  /// Builds a table directly from encoded columns (gather/slice paths
  /// that preserve encodings and share dictionaries).
  static Result<TablePtr> FromColumnData(Schema schema,
                                         std::vector<ColumnData> columns);

  /// Zero-row table with the given schema.
  static TablePtr Empty(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return typed_.size(); }

  /// Process-unique monotonic id assigned at construction. Because tables
  /// are immutable, the version doubles as the "input-table version" of
  /// the result cache: a republished or appended data object is a *new*
  /// Table with a new version, so cache entries keyed on the old version
  /// can never be served again and age out of the LRU. Versions are not
  /// stable across processes — they identify a table instance, not its
  /// content.
  uint64_t version() const { return version_; }

  /// Recovery-only (store/durability): re-stamps `table` — freshly
  /// rebuilt during WAL replay and not yet visible to any other thread —
  /// with the version it carried in the previous process, and advances
  /// the process-wide version counter past it. Restored ETags and
  /// changelog `prev_version` cursors stay valid across a restart, and
  /// every table built afterwards still gets a strictly larger version
  /// (no two live tables ever share one).
  static void RestampVersionForRecovery(const TablePtr& table,
                                        uint64_t version);

  /// Encoded storage of column `i` — the fast path for typed kernels.
  const ColumnData& typed_column(size_t i) const { return typed_[i]; }

  /// Decoded Value view of column `i` (lazy, cached; generic columns are
  /// returned directly without copying).
  const std::vector<Value>& column(size_t i) const;

  /// Cell accessor over the decoded view. Bounds are the caller's
  /// responsibility (operators iterate within num_rows/num_columns).
  const Value& at(size_t row, size_t col) const { return column(col)[row]; }

  /// Column by name, or kSchemaError.
  Result<const std::vector<Value>*> ColumnByName(const std::string& name) const;

  /// Copies one row out (test/display convenience).
  std::vector<Value> Row(size_t row) const;

  /// Approximate in-memory footprint of the *encoded* representation
  /// (codes + dictionary for dict columns, raw arrays for primitives),
  /// used by the optimizer's transfer-minimization cost model and the
  /// sharing benchmarks. Lazily-decoded compatibility views are not
  /// charged — they exist only while a generic-path operator touches the
  /// table.
  size_t ApproxBytes() const;

  /// Renders up to `max_rows` rows as an aligned ASCII table (the data
  /// explorer's tabular view).
  std::string ToDisplayString(size_t max_rows = 20) const;

 private:
  Table(Schema schema, std::vector<ColumnData> columns, size_t num_rows);

  Schema schema_;
  std::vector<ColumnData> typed_;
  size_t num_rows_ = 0;
  uint64_t version_ = 0;

  // Lazily-decoded Value views (compatibility path). view_once_[i] guards
  // the one-time decode of view_[i]; kGeneric columns bypass the cache.
  mutable std::vector<std::vector<Value>> view_;
  mutable std::unique_ptr<std::once_flag[]> view_once_;
};

/// Row-at-a-time builder used by readers, generators, and operators.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }

  /// Pre-allocates room for `rows` additional rows in every column, so
  /// bulk loads (CSV/JSON readers, operator materialization) append
  /// without repeated vector reallocation.
  void Reserve(size_t rows);

  /// Appends a row; must have exactly one value per schema field.
  Status AppendRow(std::vector<Value> row);

  /// Finishes the table; the builder must not be reused afterwards.
  Result<TablePtr> Finish();

 private:
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  size_t num_rows_ = 0;
};

/// Infers per-column types from the data (all-int64 column => kInt64,
/// numeric mix => kDouble, etc.) and returns a table whose string cells
/// are parsed accordingly. Readers call this after loading raw text.
Result<TablePtr> InferColumnTypes(const TablePtr& table);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_TABLE_TABLE_H_
