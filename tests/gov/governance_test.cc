#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gov/admission.h"
#include "gov/cancellation.h"
#include "gov/memory_budget.h"

namespace shareinsights {
namespace {

// ---------------------------------------------------------------------
// CancellationToken
// ---------------------------------------------------------------------

TEST(CancellationTokenTest, StartsLive) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
  EXPECT_EQ(token.cause(), CancelCause::kNone);
  EXPECT_EQ(token.reason(), "");
}

TEST(CancellationTokenTest, FirstCancelWins) {
  CancellationToken token;
  token.Cancel("client went away", CancelCause::kClient);
  token.Cancel("shutting down", CancelCause::kShutdown);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.cause(), CancelCause::kClient);
  EXPECT_EQ(token.reason(), "client went away");
  Status status = token.Check();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("client went away"), std::string::npos);
}

TEST(CancellationTokenTest, DeadlineFiresLazilyOnCheck) {
  CancellationToken token;
  token.ArmDeadline(5);
  // Not fired yet (deadline in the future, nothing probed it past due).
  EXPECT_TRUE(token.Check().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.cause(), CancelCause::kDeadline);
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, ExplicitCancelBeatsLaterDeadline) {
  CancellationToken token;
  token.ArmDeadline(5);
  token.Cancel("abort", CancelCause::kClient);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_EQ(token.cause(), CancelCause::kClient);
  EXPECT_EQ(token.reason(), "abort");
}

TEST(CancellationTokenTest, ZeroDeadlineIsNoDeadline) {
  CancellationToken token;
  token.ArmDeadline(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTokenTest, ConcurrentCancelIsSingleWinner) {
  CancellationToken token;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&token, i] {
      token.Cancel("racer " + std::to_string(i), CancelCause::kClient);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(token.cancelled());
  // Exactly one racer's reason survives, unmangled.
  std::string reason = token.reason();
  EXPECT_EQ(reason.rfind("racer ", 0), 0u) << reason;
}

// ---------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------

TEST(MemoryBudgetTest, ReserveAndReleaseOnDestroy) {
  MemoryBudget budget("test", 1000);
  {
    Result<MemoryReservation> r = budget.Reserve(600, "op");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(budget.reserved(), 600u);
  }
  EXPECT_EQ(budget.reserved(), 0u);
}

TEST(MemoryBudgetTest, RejectionNamesOperatorAndBudget) {
  MemoryBudget budget("query", 100);
  Result<MemoryReservation> r = budget.Reserve(200, "groupby");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("groupby"), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("query"), std::string::npos)
      << r.status();
  // Nothing stays charged after a refusal.
  EXPECT_EQ(budget.reserved(), 0u);
}

TEST(MemoryBudgetTest, UnlimitedCapacityOnlyAccounts) {
  MemoryBudget budget("acct");  // capacity 0 = unlimited
  Result<MemoryReservation> r = budget.Reserve(1 << 20, "op");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(budget.reserved(), static_cast<size_t>(1 << 20));
}

TEST(MemoryBudgetTest, HierarchyChargesParentAndUnwindsOnParentRefusal) {
  MemoryBudget parent("process", 500);
  MemoryBudget child("query", 1000, &parent);
  // Child has room but the parent does not: the whole charge must unwind.
  Result<MemoryReservation> r = child.Reserve(600, "join:build");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("process"), std::string::npos)
      << r.status();
  EXPECT_EQ(child.reserved(), 0u);
  EXPECT_EQ(parent.reserved(), 0u);

  // A fitting charge lands at both levels and releases at both.
  {
    Result<MemoryReservation> ok = child.Reserve(400, "join:build");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(child.reserved(), 400u);
    EXPECT_EQ(parent.reserved(), 400u);
  }
  EXPECT_EQ(child.reserved(), 0u);
  EXPECT_EQ(parent.reserved(), 0u);
}

TEST(MemoryBudgetTest, ChildCapHitsBeforeParent) {
  MemoryBudget parent("process", 10000);
  MemoryBudget child("query", 100, &parent);
  Result<MemoryReservation> r = child.Reserve(500, "gather");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("'query'"), std::string::npos)
      << r.status();
  EXPECT_EQ(parent.reserved(), 0u);
}

TEST(MemoryBudgetTest, CheckFitsRefusesLikeReserveButChargesNothing) {
  MemoryBudget parent("process", 500);
  MemoryBudget child("query", 1000, &parent);
  EXPECT_TRUE(child.CheckFits(500, "source:load").ok());
  EXPECT_EQ(child.reserved(), 0u);
  EXPECT_EQ(parent.reserved(), 0u);

  // Refused at the parent with Reserve's message, still charging nothing.
  Result<MemoryReservation> held = parent.Reserve(200, "gather");
  ASSERT_TRUE(held.ok());
  Status refused = child.CheckFits(400, "source:load");
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(refused.message(),
            child.Reserve(400, "source:load").status().message());
  EXPECT_EQ(child.reserved(), 0u);
  EXPECT_EQ(parent.reserved(), 200u);
}

TEST(MemoryBudgetTest, ConcurrentReservationsNeverOverflow) {
  MemoryBudget budget("shared", 1000);
  std::atomic<int> granted{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 200; ++j) {
        Result<MemoryReservation> r = budget.Reserve(300, "op");
        if (r.ok()) {
          granted.fetch_add(1);
          // Hold briefly so reservations overlap across threads.
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(granted.load(), 0);
  EXPECT_EQ(budget.reserved(), 0u);
}

// A parent only ever holds what its children's live reservations put on
// it: with every charge going through one capped child, a sampler must
// never see the parent above the child's cap, however the children's
// reserves and releases interleave.
TEST(MemoryBudgetTest, ParentNeverExceedsChildCapUnderChurn) {
  MemoryBudget parent("process");  // unlimited: accounting only
  MemoryBudget child("query", 1000, &parent);
  std::atomic<bool> done{false};
  std::atomic<size_t> max_seen{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      size_t now = parent.reserved();
      if (now > max_seen.load(std::memory_order_relaxed)) {
        max_seen.store(now, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 20000; ++j) {
        Result<MemoryReservation> r = child.Reserve(400, "op");
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  sampler.join();
  EXPECT_LE(max_seen.load(), 1000u);
  EXPECT_EQ(parent.reserved(), 0u);
}

TEST(MemoryBudgetTest, MoveTransfersOwnership) {
  MemoryBudget budget("test", 1000);
  MemoryReservation outer;
  {
    Result<MemoryReservation> r = budget.Reserve(100, "op");
    ASSERT_TRUE(r.ok());
    outer = std::move(*r);
  }
  EXPECT_EQ(budget.reserved(), 100u);
  outer.Release();
  EXPECT_EQ(budget.reserved(), 0u);
}

TEST(MemoryBudgetTest, ApproxCellBytesScalesWithRowsAndColumns) {
  EXPECT_EQ(ApproxCellBytes(0, 5), 0u);
  EXPECT_EQ(ApproxCellBytes(10, 2), 2 * ApproxCellBytes(10, 1));
  EXPECT_GT(ApproxCellBytes(1, 1), 0u);
}

// ---------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------

TEST(AdmissionTest, DisabledAdmitsEverything) {
  AdmissionController controller(AdmissionOptions{});
  for (int i = 0; i < 10; ++i) {
    Result<AdmissionSlot> slot = controller.Admit();
    EXPECT_TRUE(slot.ok());
  }
}

TEST(AdmissionTest, BurstSplitsIntoRunningQueuedShed) {
  // max_in_flight=2, max_queue=2: of 6 simultaneous arrivals, 2 run,
  // 2 queue (and run later), 2 are shed with kResourceExhausted.
  AdmissionController controller(
      AdmissionOptions{/*max_in_flight=*/2, /*max_queue=*/2,
                       /*queue_timeout_ms=*/5000});
  Result<AdmissionSlot> a = controller.Admit();
  Result<AdmissionSlot> b = controller.Admit();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(controller.in_flight(), 2u);

  // Two waiters park in the queue on their own threads.
  std::atomic<int> queued_ok{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&] {
      Result<AdmissionSlot> slot = controller.Admit();
      if (slot.ok()) queued_ok.fetch_add(1);
    });
  }
  // Wait until both are visibly queued.
  while (controller.queue_depth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Arrivals 5 and 6 find the queue full and are shed immediately.
  for (int i = 0; i < 2; ++i) {
    Result<AdmissionSlot> shed = controller.Admit();
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  }

  // Freeing the running slots seats the queued waiters.
  a->Release();
  b->Release();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(queued_ok.load(), 2);
}

TEST(AdmissionTest, QueueTimeoutAnswersUnavailable) {
  AdmissionController controller(
      AdmissionOptions{/*max_in_flight=*/1, /*max_queue=*/1,
                       /*queue_timeout_ms=*/20});
  Result<AdmissionSlot> held = controller.Admit();
  ASSERT_TRUE(held.ok());
  auto start = std::chrono::steady_clock::now();
  Result<AdmissionSlot> timed_out = controller.Admit();
  double waited_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(waited_ms, 15.0);
}

TEST(AdmissionTest, FifoOrderAcrossWaiters) {
  AdmissionController controller(
      AdmissionOptions{/*max_in_flight=*/1, /*max_queue=*/4,
                       /*queue_timeout_ms=*/5000});
  Result<AdmissionSlot> held = controller.Admit();
  ASSERT_TRUE(held.ok());

  std::mutex order_mu;
  std::vector<int> seat_order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      Result<AdmissionSlot> slot = controller.Admit();
      ASSERT_TRUE(slot.ok());
      {
        std::lock_guard<std::mutex> lock(order_mu);
        seat_order.push_back(i);
      }
      slot->Release();
    });
    // Serialize arrival so ticket order matches thread index.
    while (controller.queue_depth() < static_cast<size_t>(i + 1)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  held->Release();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(seat_order, (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionTest, ShutdownDrainsWaitersAndRefusesNewArrivals) {
  AdmissionController controller(
      AdmissionOptions{/*max_in_flight=*/1, /*max_queue=*/2,
                       /*queue_timeout_ms=*/5000});
  Result<AdmissionSlot> held = controller.Admit();
  ASSERT_TRUE(held.ok());
  std::atomic<bool> waiter_unavailable{false};
  std::thread waiter([&] {
    Result<AdmissionSlot> slot = controller.Admit();
    waiter_unavailable =
        !slot.ok() && slot.status().code() == StatusCode::kUnavailable;
  });
  while (controller.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  controller.BeginShutdown();
  waiter.join();
  EXPECT_TRUE(waiter_unavailable.load());
  Result<AdmissionSlot> late = controller.Admit();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  // Drain completes once the in-flight slot frees.
  EXPECT_FALSE(controller.AwaitDrain(5));
  held->Release();
  EXPECT_TRUE(controller.AwaitDrain(1000));
}

}  // namespace
}  // namespace shareinsights
