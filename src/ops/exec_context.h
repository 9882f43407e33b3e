#ifndef SHAREINSIGHTS_OPS_EXEC_CONTEXT_H_
#define SHAREINSIGHTS_OPS_EXEC_CONTEXT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "gov/cancellation.h"
#include "gov/memory_budget.h"
#include "obs/trace.h"
#include "table/table.h"

namespace shareinsights {

class SpillScratch;

/// Default target rows per morsel. Tables at or below this size run as a
/// single morsel, which is exactly the pre-morsel sequential code path.
inline constexpr size_t kDefaultMorselRows = 16 * 1024;

/// Per-execution context threaded through TableOperator::Execute: the
/// executor's shared worker pool, the morsel granularity, and the trace
/// sink. Operators split their hot row loops into morsels of
/// `morsel_rows` rows and run them on `pool` (morsel-driven parallelism,
/// Leis et al., SIGMOD 2014).
///
/// Determinism contract: the morsel decomposition depends only on
/// (num_rows, morsel_rows) — never on the pool or its thread count — and
/// every operator merges per-morsel results in morsel order. A run with 8
/// threads is therefore byte-identical to a run with 1 thread or with no
/// pool at all.
struct ExecContext {
  /// Worker pool morsels run on. Null = run morsels inline on the calling
  /// thread (still morsel-structured, so results match parallel runs).
  ThreadPool* pool = nullptr;
  /// Target rows per morsel; the last morsel may be smaller.
  size_t morsel_rows = kDefaultMorselRows;
  /// Optional span sink; operators record one ops.parallel span per
  /// multi-morsel batch under `trace_parent`.
  Tracer* tracer = nullptr;
  SpanId trace_parent = 0;
  /// Cooperative cancellation. ForEachMorsel probes it before scheduling
  /// each morsel, so a fired token (client abort, deadline, shutdown)
  /// aborts a running operator within one morsel's latency — morsels
  /// already in flight finish; nothing new starts. Null = uncancellable.
  CancellationToken* cancel = nullptr;
  /// Memory account charged at materialization points (GatherRows, hash
  /// tables, builders). Null = unmetered. A refused reservation surfaces
  /// as kResourceExhausted naming the operator, not as an OOM kill.
  MemoryBudget* budget = nullptr;
  /// Per-run spill area (ops/spill.h). When set, spill-capable operators
  /// (group-by, join, the shared gather kernel behind sort / distinct /
  /// limit) degrade to compressed on-disk partitions instead of failing
  /// when a `budget` reservation reports pressure. Null = spilling
  /// disabled; over-budget materializations keep the PR4 hard-fail
  /// (kResourceExhausted) behavior.
  SpillScratch* spill = nullptr;

  /// OK while the run may proceed; the token's kCancelled once fired.
  /// Operators call this at their own coarse boundaries (DAG nodes, cube
  /// query stages) in addition to ForEachMorsel's per-morsel probe.
  Status CheckCancelled() const {
    return cancel != nullptr ? cancel->Check() : Status::OK();
  }

  /// Workers available for morsel execution (1 = sequential).
  size_t parallelism() const {
    return pool != nullptr ? pool->num_threads() : 1;
  }
};

/// Half-open row range [begin, end) of one morsel.
struct MorselRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits [0, num_rows) into morsels of ~morsel_rows rows. Pure function
/// of (num_rows, ctx.morsel_rows): the decomposition is identical across
/// thread counts, which is what makes parallel results bit-identical to
/// sequential ones.
std::vector<MorselRange> MorselRanges(size_t num_rows,
                                      const ExecContext& ctx);

/// Runs `fn(morsel_index, begin, end)` for every morsel of [0, num_rows),
/// on ctx.pool when one is configured (inline otherwise). Blocks until
/// every morsel has finished. On failure returns the error of the
/// lowest-indexed failing morsel, so the reported error is the same one
/// the sequential path would have hit first.
///
/// Cancellation: ctx.cancel is probed before each morsel runs; once
/// fired, unstarted morsels are skipped (in-flight ones finish) and the
/// batch returns kCancelled. When a real error and a cancellation race,
/// the error wins: the lowest-indexed *non-cancelled* failure is
/// returned, so cancelling never masks what actually went wrong.
///
/// Records per-morsel engine metrics (ops_morsels_total,
/// ops_parallel_batches_total, ops_morsel_rows_total) and, when tracing
/// with more than one morsel, an ops.parallel span under
/// ctx.trace_parent.
Status ForEachMorsel(const ExecContext& ctx, size_t num_rows,
                     const std::function<Status(size_t morsel, size_t begin,
                                                size_t end)>& fn);

/// Materializes `out[i] = input row rows[i]` as a new table with the
/// input's schema, filling output columns morsel-parallel over the output
/// rows. This is the shared gather kernel behind filter / sort / limit /
/// distinct / topn materialization.
Result<TablePtr> GatherRows(const TablePtr& input,
                            const std::vector<size_t>& rows,
                            const ExecContext& ctx);

/// Returns `input` with column `name` replaced (when the input has one)
/// or appended, holding `values` (one per input row) and declared as
/// `type`. The other columns keep their encoded storage, so dictionaries
/// stay shared; only `values` is encoded. This is the one output path of
/// the column-adding operators (the map family and map:expression).
Result<TablePtr> WithColumn(const TablePtr& input, const std::string& name,
                            ValueType type, std::vector<Value> values);

/// Concatenates per-morsel row-index selections (in morsel order) into
/// one flat list. Helper for selection-style operators.
std::vector<size_t> ConcatSelections(
    const std::vector<std::vector<size_t>>& selections);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_OPS_EXEC_CONTEXT_H_
