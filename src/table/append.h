#ifndef SHAREINSIGHTS_TABLE_APPEND_H_
#define SHAREINSIGHTS_TABLE_APPEND_H_

#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace shareinsights {

/// Encoding-preserving concatenation `base ++ delta` — the storage step
/// of a streaming append. Column arities must match and column names are
/// taken from `base`. Primitive columns extend their raw arrays and
/// dictionary columns merge into the sorted-union dictionary (interned,
/// so the result shares one dictionary with any cold re-encode of the
/// same content); see ColumnData::Concat. The result is a NEW immutable
/// Table with a fresh version() — the old version becomes precisely
/// invalidatable in caches keyed on it.
Result<TablePtr> ConcatTables(const TablePtr& base, const TablePtr& delta);

/// Builds a typed row-batch ready to append to `base`: each cell is
/// coerced to the type the materialized base column's encoding implies
/// — falling back to the declared field type for all-null columns, and
/// passing cells through for kGeneric ones — (JSON numbers arrive as
/// doubles and are narrowed to int64 when exact; strings parse into
/// numeric/bool columns; anything unrepresentable is an
/// InvalidArgument naming the column). A dictionary column whose
/// cells are all already in the base dictionary shares the base's
/// interned dictionary; one that brings new strings gets its own sorted
/// dictionary of just the batch's distinct strings, which ConcatTables
/// merges into the base's once — so the work here follows the batch,
/// not the base. Other columns are grown in place from the base
/// columns' shapes with ColumnData::AppendValue — an appended batch
/// never silently degrades a typed column to kGeneric.
Result<TablePtr> MakeAppendBatch(const Table& base,
                                 std::vector<std::vector<Value>> rows);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_TABLE_APPEND_H_
