#include "ops/exec_context.h"

#include <algorithm>

#include "obs/metrics.h"
#include "ops/spill.h"

namespace shareinsights {

std::vector<MorselRange> MorselRanges(size_t num_rows,
                                      const ExecContext& ctx) {
  size_t morsel = std::max<size_t>(1, ctx.morsel_rows);
  if (num_rows <= morsel) return {MorselRange{0, num_rows}};
  size_t count = (num_rows + morsel - 1) / morsel;
  std::vector<MorselRange> out;
  out.reserve(count);
  for (size_t m = 0; m < count; ++m) {
    out.push_back(
        MorselRange{m * morsel, std::min(num_rows, (m + 1) * morsel)});
  }
  return out;
}

Status ForEachMorsel(const ExecContext& ctx, size_t num_rows,
                     const std::function<Status(size_t morsel, size_t begin,
                                                size_t end)>& fn) {
  std::vector<MorselRange> ranges = MorselRanges(num_rows, ctx);

  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics
      .GetCounter("ops_morsels_total",
                  "morsels dispatched by table operators")
      ->Increment(static_cast<int64_t>(ranges.size()));
  metrics
      .GetCounter("ops_morsel_rows_total",
                  "rows scanned through operator morsels")
      ->Increment(static_cast<int64_t>(num_rows));

  if (ranges.size() == 1) {
    SI_RETURN_IF_ERROR(ctx.CheckCancelled());
    return fn(0, ranges[0].begin, ranges[0].end);
  }

  metrics
      .GetCounter("ops_parallel_batches_total",
                  "operator row loops split across >1 morsel")
      ->Increment();
  ScopedSpan span(ctx.tracer, "ops.parallel", ctx.trace_parent);
  span.AddAttribute("morsels", static_cast<int64_t>(ranges.size()));
  span.AddAttribute("rows", static_cast<int64_t>(num_rows));

  std::vector<Status> results(ranges.size());
  auto run_one = [&](size_t m) {
    // Cooperative cancellation point: a fired token stops morsels that
    // have not started yet; in-flight morsels run to completion.
    Status live = ctx.CheckCancelled();
    results[m] = live.ok() ? fn(m, ranges[m].begin, ranges[m].end)
                           : std::move(live);
  };
  if (ctx.pool != nullptr) {
    ctx.pool->ParallelFor(ranges.size(), run_one);
  } else {
    for (size_t m = 0; m < ranges.size(); ++m) run_one(m);
  }
  // Report the lowest-indexed failure: the same error the sequential scan
  // would have surfaced first. Real errors outrank kCancelled statuses
  // from skipped morsels — cancellation must never mask a genuine error
  // that raced with it.
  Status cancelled;
  for (Status& status : results) {
    if (status.ok()) continue;
    if (status.code() == StatusCode::kCancelled) {
      if (cancelled.ok()) cancelled = std::move(status);
      continue;
    }
    return std::move(status);
  }
  return cancelled;
}

Result<TablePtr> GatherRows(const TablePtr& input,
                            const std::vector<size_t>& rows,
                            const ExecContext& ctx) {
  size_t num_columns = input->num_columns();
  // The whole-output gather is the budget-gated fast path; under memory
  // pressure with a spill area, MaterializeChunksWithSpill re-invokes
  // the same kernel per chunk of `rows` and stream-merges the spilled
  // partitions — which is how sort / distinct / limit materializations
  // degrade gracefully instead of failing.
  return MaterializeChunksWithSpill(
      input->schema(), rows.size(), num_columns, ctx, "gather",
      [&](size_t chunk_begin, size_t chunk_end) -> Result<TablePtr> {
        const bool full = chunk_begin == 0 && chunk_end == rows.size();
        std::vector<size_t> slice;
        if (!full) {
          slice.assign(rows.begin() + static_cast<ptrdiff_t>(chunk_begin),
                       rows.begin() + static_cast<ptrdiff_t>(chunk_end));
        }
        const std::vector<size_t>& gather_rows = full ? rows : slice;
        // Gather on the encoded representation: primitive/code arrays
        // copy directly (dictionaries are shared, not re-built), so no
        // Value is constructed per cell.
        std::vector<ColumnData> columns;
        columns.reserve(num_columns);
        for (size_t c = 0; c < num_columns; ++c) {
          columns.push_back(ColumnData::AllocateLike(input->typed_column(c),
                                                     gather_rows.size()));
        }
        SI_RETURN_IF_ERROR(ForEachMorsel(
            ctx, gather_rows.size(),
            [&](size_t, size_t begin, size_t end) -> Status {
              for (size_t c = 0; c < num_columns; ++c) {
                columns[c].GatherFrom(input->typed_column(c), gather_rows,
                                      begin, end);
              }
              return Status::OK();
            }));
        return Table::FromColumnData(input->schema(), std::move(columns));
      });
}

Result<TablePtr> WithColumn(const TablePtr& input, const std::string& name,
                            ValueType type, std::vector<Value> values) {
  Schema schema = input->schema();
  schema.AddField(Field{name, type});
  const size_t target = *schema.IndexOf(name);
  std::vector<ColumnData> columns(schema.num_fields());
  for (size_t c = 0; c < input->num_columns(); ++c) {
    if (c != target) columns[c] = input->typed_column(c);
  }
  columns[target] = ColumnData::Encode(std::move(values));
  return Table::FromColumnData(std::move(schema), std::move(columns));
}

std::vector<size_t> ConcatSelections(
    const std::vector<std::vector<size_t>>& selections) {
  size_t total = 0;
  for (const auto& s : selections) total += s.size();
  std::vector<size_t> out;
  out.reserve(total);
  for (const auto& s : selections) out.insert(out.end(), s.begin(), s.end());
  return out;
}

}  // namespace shareinsights
