#ifndef SHAREINSIGHTS_OPS_GROUPBY_H_
#define SHAREINSIGHTS_OPS_GROUPBY_H_

#include <string>
#include <vector>

#include "ops/aggregate.h"
#include "ops/operator.h"

namespace shareinsights {

/// One aggregate clause of a `groupby` task (fig. 8):
///   - operator: sum
///     apply_on: noOfCheckins
///     out_field: total_checkins
struct AggregateSpec {
  std::string op;        // registry name: sum, count, avg, ...
  std::string apply_on;  // input column ("" allowed for count)
  std::string out_field; // output column
};

/// Hash group-by with streaming aggregates. When no aggregates are
/// configured, a single `count` column counts rows per group (fig. 23's
/// bare `groupby: [date, player]` produces date, player, count). Output
/// groups appear in first-encounter order, giving deterministic results;
/// `orderby_aggregates` instead sorts descending by the first aggregate.
class GroupByOp : public TableOperator {
 public:
  static Result<TableOperatorPtr> Create(
      std::vector<std::string> keys, std::vector<AggregateSpec> aggregates,
      bool orderby_aggregates = false,
      AggregateRegistry* registry = nullptr);

  std::string name() const override { return "groupby"; }
  Result<Schema> OutputSchema(const std::vector<Schema>& inputs) const override;
  using TableOperator::Execute;
  /// Morsel-parallel: each morsel aggregates into a thread-local hash
  /// table; partials merge in morsel order (Aggregator::Merge), so group
  /// order and tie-breaking match the sequential scan exactly. Aggregates
  /// whose accumulator is not mergeable() fall back to one morsel.
  Result<TablePtr> Execute(const std::vector<TablePtr>& inputs,
                           const ExecContext& ctx) const override;

  const std::vector<std::string>& keys() const { return keys_; }
  const std::vector<AggregateSpec>& aggregates() const { return aggregates_; }
  /// Fingerprintable only with the default aggregate registry: a custom
  /// registry may bind the same aggregate name to different semantics.
  std::string CacheKey() const override;

  /// Accumulating streaming: persistent per-group aggregators absorb
  /// appended rows and the whole output is re-emitted — byte-identical to
  /// Execute(base ++ delta) because group first-encounter order over
  /// base ++ delta is "old groups in old order, then new groups", and the
  /// accumulators merge per-morsel partials at the same morsel boundaries
  /// as Execute (double addition is not associative, so the boundaries
  /// matter). Restricted to the default aggregate
  /// registry: custom aggregators may have destructive Finalize, which
  /// the live-state re-emit would corrupt.
  DeltaMode delta_mode(const std::vector<bool>&) const override;
  Result<OperatorStatePtr> SeedDeltaState(
      const std::vector<TablePtr>& base_inputs,
      const ExecContext& ctx) const override;
  Result<TablePtr> ExecuteDelta(const std::vector<TablePtr>& inputs,
                                const std::vector<bool>& input_changed,
                                OperatorState* state,
                                const ExecContext& ctx) const override;

 private:
  GroupByOp(std::vector<std::string> keys,
            std::vector<AggregateSpec> aggregates, bool orderby_aggregates,
            AggregateRegistry* registry)
      : keys_(std::move(keys)),
        aggregates_(std::move(aggregates)),
        orderby_aggregates_(orderby_aggregates),
        registry_(registry) {}

  std::vector<std::string> keys_;
  std::vector<AggregateSpec> aggregates_;
  bool orderby_aggregates_;
  AggregateRegistry* registry_;
};

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_OPS_GROUPBY_H_
