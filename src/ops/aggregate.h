#ifndef SHAREINSIGHTS_OPS_AGGREGATE_H_
#define SHAREINSIGHTS_OPS_AGGREGATE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace shareinsights {

/// Streaming accumulator for one aggregate over one group: "transforming
/// a bag of values into a point value" (the paper's extension category 2,
/// user-defined aggregates). A fresh instance is created per group.
///
/// Parallel group-by builds one accumulator per (group, morsel) and
/// combines them with Merge in morsel order. `other` is always an
/// accumulator produced by the same factory and holds the state of rows
/// that came AFTER this instance's rows in scan order — order-sensitive
/// aggregates (first/last) rely on that. Aggregates that don't implement
/// Merge (mergeable() == false) force the enclosing group-by down the
/// single-morsel sequential path.
class Aggregator {
 public:
  virtual ~Aggregator() = default;
  virtual Status Update(const Value& value) = 0;
  virtual Result<Value> Finalize() = 0;

  /// True when Merge is implemented; checked once per group-by before
  /// choosing the parallel plan.
  virtual bool mergeable() const { return false; }

  /// Folds `other`'s state (later rows in scan order) into this one.
  virtual Status Merge(const Aggregator& other) {
    (void)other;
    return Status::Unimplemented("aggregator does not support Merge");
  }

  /// An independent copy of this accumulator's state. The built-in
  /// aggregates implement it; the streaming group-by uses it to finalize
  /// a merge without disturbing the state it keeps.
  virtual Result<std::unique_ptr<Aggregator>> Clone() const {
    return Status::Unimplemented("aggregator does not support Clone");
  }
};

using AggregatorFactory = std::function<std::unique_ptr<Aggregator>()>;

/// Registry of aggregate operators. Pre-loaded with sum, count, avg, min,
/// max, count_distinct, first, last; extendable with user-defined
/// aggregates which are "treated on par with system provided tasks".
class AggregateRegistry {
 public:
  static AggregateRegistry& Default();

  AggregateRegistry();

  Status Register(const std::string& name, AggregatorFactory factory);
  Result<AggregatorFactory> Get(const std::string& name) const;
  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, AggregatorFactory> factories_;
};

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_OPS_AGGREGATE_H_
