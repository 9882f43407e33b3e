#include "gov/memory_budget.h"

#include <cstdlib>

#include "common/value.h"
#include "obs/metrics.h"

namespace shareinsights {

namespace {

Gauge* ReservedGauge() {
  static Gauge* gauge = MetricsRegistry::Default().GetGauge(
      "mem_reserved_bytes",
      "bytes currently reserved against the process memory budget");
  return gauge;
}

Counter* RejectionsCounter() {
  static Counter* counter = MetricsRegistry::Default().GetCounter(
      "mem_budget_rejections_total",
      "reservations refused by a memory budget");
  return counter;
}

}  // namespace

MemoryReservation& MemoryReservation::operator=(
    MemoryReservation&& other) noexcept {
  if (this != &other) {
    Release();
    budget_ = std::exchange(other.budget_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

void MemoryReservation::Release() {
  if (budget_ != nullptr && bytes_ > 0) {
    budget_->ReleaseUpTo(bytes_, nullptr);
  }
  budget_ = nullptr;
  bytes_ = 0;
}

MemoryBudget& MemoryBudget::Process() {
  // SI_PROCESS_MEM_BUDGET_BYTES pins the root capacity from the
  // environment at first use, so a container or CI job can cap every
  // query in the process without code changes. Unset, empty, or
  // non-numeric values leave the budget unlimited; set_capacity() can
  // still override later.
  static MemoryBudget* process = [] {
    auto* budget = new MemoryBudget("process");
    const char* env = std::getenv("SI_PROCESS_MEM_BUDGET_BYTES");
    if (env != nullptr && *env != '\0') {
      char* end = nullptr;
      unsigned long long bytes = std::strtoull(env, &end, 10);
      if (end != nullptr && *end == '\0') {
        budget->set_capacity(static_cast<size_t>(bytes));
      }
    }
    return budget;
  }();
  return *process;
}

Status MemoryBudget::Refusal(size_t bytes, const std::string& op,
                             size_t capacity, size_t current) const {
  return Status::ResourceExhausted(
      "operator '" + op + "' needs " + std::to_string(bytes) +
      " bytes but the '" + name_ + "' memory budget has " +
      std::to_string(capacity > current ? capacity - current : 0) + " of " +
      std::to_string(capacity) + " bytes free");
}

Status MemoryBudget::ReserveLocal(size_t bytes, const std::string& op,
                                  bool count_rejection) {
  size_t capacity = capacity_.load(std::memory_order_relaxed);
  // Acquire pairs with ReleaseLocal's release: bytes freed here were
  // already freed at every ancestor (ReleaseUpTo goes top-down), so the
  // ancestors' charge for them is gone before this charge reaches them.
  size_t current = reserved_.load(std::memory_order_acquire);
  for (;;) {
    if (capacity > 0 && current + bytes > capacity) {
      if (count_rejection) RejectionsCounter()->Increment();
      return Refusal(bytes, op, capacity, current);
    }
    if (reserved_.compare_exchange_weak(current, current + bytes,
                                        std::memory_order_acquire)) {
      return Status::OK();
    }
  }
}

void MemoryBudget::ReleaseLocal(size_t bytes) {
  reserved_.fetch_sub(bytes, std::memory_order_release);
  if (parent_ == nullptr) {
    ReservedGauge()->Add(-static_cast<double>(bytes));
  }
}

void MemoryBudget::ReleaseUpTo(size_t bytes, const MemoryBudget* stop) {
  if (parent_ != stop) parent_->ReleaseUpTo(bytes, stop);
  ReleaseLocal(bytes);
}

Result<MemoryReservation> MemoryBudget::ReserveInternal(size_t bytes,
                                                        const std::string& op,
                                                        bool count_rejection) {
  if (bytes == 0) return MemoryReservation();
  // Charge bottom-up; on a failure at any level, unwind the levels
  // already charged so nothing leaks.
  for (MemoryBudget* b = this; b != nullptr; b = b->parent_) {
    Status charged = b->ReserveLocal(bytes, op, count_rejection);
    if (!charged.ok()) {
      if (b != this) ReleaseUpTo(bytes, b);
      return charged;
    }
    if (b->parent_ == nullptr) {
      ReservedGauge()->Add(static_cast<double>(bytes));
    }
  }
  return MemoryReservation(this, bytes);
}

Result<MemoryReservation> MemoryBudget::Reserve(size_t bytes,
                                                const std::string& op) {
  return ReserveInternal(bytes, op, /*count_rejection=*/true);
}

Status MemoryBudget::CheckFits(size_t bytes, const std::string& op) const {
  for (const MemoryBudget* b = this; b != nullptr; b = b->parent_) {
    size_t capacity = b->capacity();
    size_t current = b->reserved();
    if (capacity > 0 && current + bytes > capacity) {
      RejectionsCounter()->Increment();
      return b->Refusal(bytes, op, capacity, current);
    }
  }
  return Status::OK();
}

MemoryBudget::PressureResult MemoryBudget::TryReserveOrSpill(
    size_t bytes, const std::string& op) {
  Result<MemoryReservation> reserved =
      ReserveInternal(bytes, op, /*count_rejection=*/false);
  if (reserved.ok()) {
    return PressureResult{std::move(*reserved), /*pressure=*/false};
  }
  static Counter* pressure_counter = MetricsRegistry::Default().GetCounter(
      "mem_pressure_spills_total",
      "operator materializations degraded to on-disk spill under memory "
      "pressure");
  pressure_counter->Increment();
  return PressureResult{MemoryReservation(), /*pressure=*/true};
}

size_t ApproxCellBytes(size_t rows, size_t columns) {
  return rows * columns * sizeof(Value);
}

}  // namespace shareinsights
