// SlotBudget tests: weighted fair division of the fused sampling budget.
// The properties under test — work conservation (a sole tenant takes the
// whole capacity), weighted caps under contention (a hot model cannot crowd
// a cold one below its share), the at-least-one-slot floor, and clean
// shutdown (every waiter wakes with a zero grant).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "service/slot_budget.h"

namespace ds = diffpattern::service;

namespace {

bool wait_for(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(SlotBudget, SoleTenantTakesFullCapacity) {
  ds::SlotBudget budget(8);
  budget.set_weight("hot", 3.0);
  // Work conservation: no other shard holds or waits, so the share cap
  // stays disengaged regardless of weights.
  EXPECT_EQ(budget.acquire("hot", 16), 8);
  EXPECT_EQ(budget.in_use("hot"), 8);
  budget.release("hot", 8);
  EXPECT_EQ(budget.in_use("hot"), 0);
}

TEST(SlotBudget, WantedIsClampedAndPartialGrantsAdd) {
  ds::SlotBudget budget(4);
  EXPECT_EQ(budget.acquire("m", 0), 1);   // wanted < 1 clamps to 1.
  EXPECT_EQ(budget.acquire("m", -5), 1);
  EXPECT_EQ(budget.acquire("m", 99), 2);  // The remaining free slots.
  EXPECT_EQ(budget.in_use("m"), 4);
  budget.release("m", 4);
}

TEST(SlotBudget, WeightedShareCapsHotShardUnderContention) {
  // Capacity 8, weights hot:cold = 3:1 -> shares 6:2 under contention.
  ds::SlotBudget budget(8);
  budget.set_weight("hot", 3.0);
  budget.set_weight("cold", 1.0);

  // Uncontended, hot grabs everything.
  ASSERT_EQ(budget.acquire("hot", 8), 8);

  // Cold arrives and must block (no free slots). Atomic: the waiter thread
  // writes the grant while wait_for polls it.
  std::atomic<std::int64_t> cold_granted{-1};
  std::thread cold([&] { cold_granted = budget.acquire("cold", 2); });
  ASSERT_TRUE(wait_for([&] { return budget.waiting() == 1; }));

  // Hot returns its slots. However the wakeup interleaves, the outcome is
  // fixed: cold's share admits its full ask of 2, and hot — now contended —
  // is capped at floor(8 * 3/4) = 6.
  budget.release("hot", 8);
  ASSERT_TRUE(wait_for([&] { return cold_granted >= 0; }));
  cold.join();
  EXPECT_EQ(cold_granted, 2);

  const std::int64_t hot_again = budget.acquire("hot", 8);
  EXPECT_EQ(hot_again, 6);
  EXPECT_EQ(budget.in_use("hot"), 6);
  EXPECT_EQ(budget.in_use("cold"), 2);

  // And a further hot ask cannot exceed the share while cold holds slots:
  // it would block, so verify via the observable invariant instead — the
  // budget is exactly full at the weighted split.
  budget.release("hot", 6);
  budget.release("cold", 2);
}

TEST(SlotBudget, ShareFloorKeepsTinyWeightsLive) {
  // A 0.01 weight against a 100 weight computes a fractional share that
  // floors to 0 — the >= 1 floor must still admit one slot, so no weight
  // assignment can starve a shard out of progress entirely.
  ds::SlotBudget budget(4);
  budget.set_weight("giant", 100.0);
  budget.set_weight("tiny", 0.01);
  ASSERT_EQ(budget.acquire("giant", 3), 3);
  EXPECT_EQ(budget.acquire("tiny", 4), 1);
  budget.release("giant", 3);
  budget.release("tiny", 1);
}

TEST(SlotBudget, NonPositiveWeightFallsBackToOne) {
  ds::SlotBudget budget(8);
  budget.set_weight("a", -2.0);  // Treated as 1.0.
  budget.set_weight("b", 1.0);
  ASSERT_EQ(budget.acquire("b", 4), 4);
  // Equal effective weights -> a's contended share is 4, not the single
  // floor slot a literally-negative weight would compute.
  EXPECT_EQ(budget.acquire("a", 8), 4);
  budget.release("a", 4);
  budget.release("b", 4);
}

TEST(SlotBudget, ContentionEndsWhenPeerLeaves) {
  // Once the cold shard fully releases and stops waiting, the hot shard is
  // a sole tenant again and may take the whole capacity.
  ds::SlotBudget budget(8);
  budget.set_weight("hot", 3.0);
  ASSERT_EQ(budget.acquire("cold", 2), 2);
  ASSERT_EQ(budget.acquire("hot", 8), 6);  // Contended share.
  budget.release("hot", 6);
  budget.release("cold", 2);
  EXPECT_EQ(budget.acquire("hot", 8), 8);  // Uncontended again.
  budget.release("hot", 8);
}

TEST(SlotBudget, ShutdownWakesWaitersWithZeroGrant) {
  ds::SlotBudget budget(2);
  ASSERT_EQ(budget.acquire("m", 2), 2);
  std::int64_t blocked_grant = -1;
  std::thread waiter([&] { blocked_grant = budget.acquire("m", 1); });
  ASSERT_TRUE(wait_for([&] { return budget.waiting() == 1; }));
  budget.shutdown();
  waiter.join();
  EXPECT_EQ(blocked_grant, 0);
  // Subsequent acquires return 0 immediately.
  EXPECT_EQ(budget.acquire("other", 4), 0);
}

TEST(SlotBudget, CapacityClampsToAtLeastOne) {
  ds::SlotBudget budget(0);
  EXPECT_EQ(budget.capacity(), 1);
  EXPECT_EQ(budget.acquire("m", 5), 1);
  budget.release("m", 1);
}

}  // namespace
