#ifndef SHAREINSIGHTS_GOV_MEMORY_BUDGET_H_
#define SHAREINSIGHTS_GOV_MEMORY_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"

namespace shareinsights {

class MemoryBudget;

/// RAII hold on budget bytes: releases on destroy, so a failing operator
/// (or a cancelled query) unwinds its charges automatically. Movable,
/// not copyable. A default-constructed reservation holds nothing — the
/// no-budget (nullptr) fast path hands these out for free.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  MemoryReservation(MemoryBudget* budget, size_t bytes)
      : budget_(budget), bytes_(bytes) {}
  MemoryReservation(MemoryReservation&& other) noexcept
      : budget_(std::exchange(other.budget_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  MemoryReservation& operator=(MemoryReservation&& other) noexcept;
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  ~MemoryReservation() { Release(); }

  /// Returns the bytes early (destructor becomes a no-op).
  void Release();

  size_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_ = nullptr;
  size_t bytes_ = 0;
};

/// Bounded memory account charged at operator materialization points
/// (gathers, aggregation/join hash tables, table builders, quarantine
/// side tables). Budgets form a hierarchy: a per-query budget charges
/// its parent (typically the process budget) transparently, so one
/// runaway query hits its own cap first and the sum of all queries can
/// never exceed the process cap. A reservation that would overflow any
/// level fails with kResourceExhausted *naming the operator*, turning a
/// would-be OOM kill into a recoverable per-query error.
///
/// Thread-safe: Reserve/release are atomic compare-exchange loops, safe
/// from morsel workers. Capacity 0 = unlimited (accounting only).
class MemoryBudget {
 public:
  /// `name` appears in rejection messages ("query", "process", ...).
  explicit MemoryBudget(std::string name, size_t capacity_bytes = 0,
                        MemoryBudget* parent = nullptr)
      : name_(std::move(name)), capacity_(capacity_bytes), parent_(parent) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Process-global budget. Unlimited by default; tests and deployments
  /// cap it with set_capacity(), or from the environment via
  /// SI_PROCESS_MEM_BUDGET_BYTES (read once, at first use). Per-query
  /// budgets parent here.
  static MemoryBudget& Process();

  /// Reserves `bytes` against this budget and every ancestor. On
  /// overflow at any level nothing stays charged and the error names
  /// `op` and the exhausted budget. Feeds mem_reserved_bytes /
  /// mem_budget_rejections_total.
  Result<MemoryReservation> Reserve(size_t bytes, const std::string& op);

  /// Admission check: fails exactly as Reserve would (same message,
  /// counted in mem_budget_rejections_total) when `bytes` do not fit at
  /// this level or an ancestor, but charges nothing. For bytes that are
  /// not held by the caller — e.g. a loaded source handed to the
  /// DataStore — so the ledger never shows a charge nobody holds.
  Status CheckFits(size_t bytes, const std::string& op) const;

  /// What TryReserveOrSpill found: either the granted reservation
  /// (pressure false) or, when the bytes would not fit, an empty
  /// reservation with pressure true — the caller's signal to degrade to
  /// its spill path instead of failing the query.
  struct PressureResult {
    MemoryReservation reservation;
    bool pressure = false;
  };

  /// Spill-capable variant of Reserve: a reservation that fits is
  /// granted exactly as Reserve would; one that would overflow reports
  /// memory pressure instead of kResourceExhausted (counted in
  /// mem_pressure_spills_total, not in mem_budget_rejections_total —
  /// pressure the engine absorbs is not a refusal). Never exceeds any
  /// level's capacity.
  PressureResult TryReserveOrSpill(size_t bytes, const std::string& op);

  /// Current reservations at this level.
  size_t reserved() const { return reserved_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }
  /// 0 = unlimited. Lowering below current reservations only affects new
  /// reservations (existing holds drain naturally).
  void set_capacity(size_t bytes) {
    capacity_.store(bytes, std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

 private:
  friend class MemoryReservation;

  /// Charges this level only; kResourceExhausted on overflow.
  /// `count_rejection` feeds mem_budget_rejections_total (false on the
  /// pressure-probing TryReserveOrSpill path).
  Status ReserveLocal(size_t bytes, const std::string& op,
                      bool count_rejection);
  Result<MemoryReservation> ReserveInternal(size_t bytes,
                                            const std::string& op,
                                            bool count_rejection);
  /// The kResourceExhausted a refused `bytes` charge at this level
  /// reports, given the level's capacity and current reservations.
  Status Refusal(size_t bytes, const std::string& op, size_t capacity,
                 size_t current) const;
  void ReleaseLocal(size_t bytes);
  /// Releases at this level and every ancestor below `stop` (nullptr =
  /// all of them), top-down: charges go bottom-up, so each level always
  /// holds at least what its descendants' reservations put on it, and a
  /// concurrent Reserve that fits a child's cap cannot push an ancestor
  /// past the sum of its children.
  void ReleaseUpTo(size_t bytes, const MemoryBudget* stop);

  std::string name_;
  std::atomic<size_t> capacity_;
  std::atomic<size_t> reserved_{0};
  MemoryBudget* parent_;
};

/// Rough per-cell cost of materialized rows, shared by every charge site
/// so budget math is consistent across operators: sizeof(Value) per cell
/// (string payloads are charged where known via Table::ApproxBytes).
size_t ApproxCellBytes(size_t rows, size_t columns);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_GOV_MEMORY_BUDGET_H_
