#include "ops/aggregate.h"

#include <unordered_set>

namespace shareinsights {

namespace {

/// Safe downcast for Merge: both accumulators come from the same factory,
/// but guard against a mismatched registry entry anyway.
template <typename T>
Result<const T*> MergePeer(const Aggregator& other) {
  const T* peer = dynamic_cast<const T*>(&other);
  if (peer == nullptr) {
    return Status::Internal("Merge called with a different aggregator type");
  }
  return peer;
}

/// sum: int64-preserving when every input is an int64; nulls skipped.
class SumAggregator : public Aggregator {
 public:
  Status Update(const Value& value) override {
    if (value.is_null()) return Status::OK();
    if (value.is_int64() && all_int_) {
      int_sum_ += value.int64_value();
    } else {
      SI_ASSIGN_OR_RETURN(double d, value.ToDouble());
      if (all_int_) {
        double_sum_ = static_cast<double>(int_sum_);
        all_int_ = false;
      }
      double_sum_ += d;
    }
    seen_ = true;
    return Status::OK();
  }
  Result<Value> Finalize() override {
    if (!seen_) return Value::Null();
    if (all_int_) return Value(int_sum_);
    return Value(double_sum_);
  }
  bool mergeable() const override { return true; }
  Status Merge(const Aggregator& other) override {
    SI_ASSIGN_OR_RETURN(const SumAggregator* peer,
                        MergePeer<SumAggregator>(other));
    if (!peer->seen_) return Status::OK();
    if (all_int_ && peer->all_int_) {
      int_sum_ += peer->int_sum_;
    } else {
      if (all_int_) {
        double_sum_ = static_cast<double>(int_sum_);
        all_int_ = false;
      }
      double_sum_ += peer->all_int_ ? static_cast<double>(peer->int_sum_)
                                    : peer->double_sum_;
    }
    seen_ = true;
    return Status::OK();
  }
  Result<std::unique_ptr<Aggregator>> Clone() const override {
    return std::unique_ptr<Aggregator>(new SumAggregator(*this));
  }

 private:
  bool seen_ = false;
  bool all_int_ = true;
  int64_t int_sum_ = 0;
  double double_sum_ = 0;
};

class CountAggregator : public Aggregator {
 public:
  Status Update(const Value& value) override {
    if (!value.is_null()) ++count_;
    return Status::OK();
  }
  Result<Value> Finalize() override { return Value(count_); }
  bool mergeable() const override { return true; }
  Status Merge(const Aggregator& other) override {
    SI_ASSIGN_OR_RETURN(const CountAggregator* peer,
                        MergePeer<CountAggregator>(other));
    count_ += peer->count_;
    return Status::OK();
  }
  Result<std::unique_ptr<Aggregator>> Clone() const override {
    return std::unique_ptr<Aggregator>(new CountAggregator(*this));
  }

 private:
  int64_t count_ = 0;
};

class CountDistinctAggregator : public Aggregator {
 public:
  Status Update(const Value& value) override {
    if (!value.is_null()) seen_.insert(value);
    return Status::OK();
  }
  Result<Value> Finalize() override {
    return Value(static_cast<int64_t>(seen_.size()));
  }
  bool mergeable() const override { return true; }
  Status Merge(const Aggregator& other) override {
    SI_ASSIGN_OR_RETURN(const CountDistinctAggregator* peer,
                        MergePeer<CountDistinctAggregator>(other));
    seen_.insert(peer->seen_.begin(), peer->seen_.end());
    return Status::OK();
  }
  Result<std::unique_ptr<Aggregator>> Clone() const override {
    return std::unique_ptr<Aggregator>(new CountDistinctAggregator(*this));
  }

 private:
  std::unordered_set<Value, ValueHash> seen_;
};

class AvgAggregator : public Aggregator {
 public:
  Status Update(const Value& value) override {
    if (value.is_null()) return Status::OK();
    SI_ASSIGN_OR_RETURN(double d, value.ToDouble());
    sum_ += d;
    ++count_;
    return Status::OK();
  }
  Result<Value> Finalize() override {
    if (count_ == 0) return Value::Null();
    return Value(sum_ / static_cast<double>(count_));
  }
  bool mergeable() const override { return true; }
  Status Merge(const Aggregator& other) override {
    SI_ASSIGN_OR_RETURN(const AvgAggregator* peer,
                        MergePeer<AvgAggregator>(other));
    sum_ += peer->sum_;
    count_ += peer->count_;
    return Status::OK();
  }
  Result<std::unique_ptr<Aggregator>> Clone() const override {
    return std::unique_ptr<Aggregator>(new AvgAggregator(*this));
  }

 private:
  double sum_ = 0;
  int64_t count_ = 0;
};

class MinMaxAggregator : public Aggregator {
 public:
  explicit MinMaxAggregator(bool is_min) : is_min_(is_min) {}
  Status Update(const Value& value) override {
    if (value.is_null()) return Status::OK();
    if (!seen_) {
      best_ = value;
      seen_ = true;
    } else if (is_min_ ? value < best_ : value > best_) {
      best_ = value;
    }
    return Status::OK();
  }
  Result<Value> Finalize() override {
    return seen_ ? best_ : Value::Null();
  }
  bool mergeable() const override { return true; }
  Status Merge(const Aggregator& other) override {
    SI_ASSIGN_OR_RETURN(const MinMaxAggregator* peer,
                        MergePeer<MinMaxAggregator>(other));
    if (!peer->seen_) return Status::OK();
    // `peer` holds later rows: a strict compare keeps the earlier row's
    // value on ties, matching the sequential scan.
    if (!seen_ || (is_min_ ? peer->best_ < best_ : peer->best_ > best_)) {
      best_ = peer->best_;
      seen_ = true;
    }
    return Status::OK();
  }
  Result<std::unique_ptr<Aggregator>> Clone() const override {
    return std::unique_ptr<Aggregator>(new MinMaxAggregator(*this));
  }

 private:
  bool is_min_;
  bool seen_ = false;
  Value best_;
};

class FirstLastAggregator : public Aggregator {
 public:
  explicit FirstLastAggregator(bool is_first) : is_first_(is_first) {}
  Status Update(const Value& value) override {
    if (value.is_null()) return Status::OK();
    if (is_first_) {
      if (!seen_) value_ = value;
    } else {
      value_ = value;
    }
    seen_ = true;
    return Status::OK();
  }
  Result<Value> Finalize() override {
    return seen_ ? value_ : Value::Null();
  }
  bool mergeable() const override { return true; }
  Status Merge(const Aggregator& other) override {
    SI_ASSIGN_OR_RETURN(const FirstLastAggregator* peer,
                        MergePeer<FirstLastAggregator>(other));
    if (!peer->seen_) return Status::OK();
    // `peer` holds later rows in scan order.
    if (is_first_) {
      if (!seen_) value_ = peer->value_;
    } else {
      value_ = peer->value_;
    }
    seen_ = true;
    return Status::OK();
  }
  Result<std::unique_ptr<Aggregator>> Clone() const override {
    return std::unique_ptr<Aggregator>(new FirstLastAggregator(*this));
  }

 private:
  bool is_first_;
  bool seen_ = false;
  Value value_;
};

}  // namespace

AggregateRegistry::AggregateRegistry() {
  factories_["sum"] = [] { return std::make_unique<SumAggregator>(); };
  factories_["count"] = [] { return std::make_unique<CountAggregator>(); };
  factories_["count_distinct"] = [] {
    return std::make_unique<CountDistinctAggregator>();
  };
  factories_["avg"] = [] { return std::make_unique<AvgAggregator>(); };
  factories_["min"] = [] { return std::make_unique<MinMaxAggregator>(true); };
  factories_["max"] = [] { return std::make_unique<MinMaxAggregator>(false); };
  factories_["first"] = [] {
    return std::make_unique<FirstLastAggregator>(true);
  };
  factories_["last"] = [] {
    return std::make_unique<FirstLastAggregator>(false);
  };
}

AggregateRegistry& AggregateRegistry::Default() {
  static AggregateRegistry* registry = new AggregateRegistry;
  return *registry;
}

Status AggregateRegistry::Register(const std::string& name,
                                   AggregatorFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  if (factories_.count(name) > 0) {
    return Status::AlreadyExists("aggregate '" + name +
                                 "' already registered");
  }
  factories_[name] = std::move(factory);
  return Status::OK();
}

Result<AggregatorFactory> AggregateRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound("no aggregate operator named '" + name + "'");
  }
  return it->second;
}

bool AggregateRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) > 0;
}

std::vector<std::string> AggregateRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

}  // namespace shareinsights
