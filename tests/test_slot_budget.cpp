// SlotBudget tests: fair division of the fused sampling budget. The
// properties under test — work conservation (a sole tenant takes the whole
// capacity), equal-share caps under contention (a hot model cannot crowd a
// cold one below its share), the at-least-one-slot floor, bounded
// per-shard bookkeeping (idle shards are forgotten), and clean shutdown
// (every waiter wakes with a zero grant).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

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

/// Owns a test's helper threads. On scope exit it shuts the budget down,
/// which wakes any thread still blocked in acquire with a zero grant, and
/// joins them all. A failed ASSERT_* then returns through the guard instead
/// of leaving a joinable std::thread, whose destructor would end the whole
/// test binary in std::terminate. Declare it after everything the threads
/// capture, so it is destroyed first.
class HelperThreads {
 public:
  explicit HelperThreads(ds::SlotBudget& budget) : budget_(budget) {}
  HelperThreads(const HelperThreads&) = delete;
  HelperThreads& operator=(const HelperThreads&) = delete;
  ~HelperThreads() {
    budget_.shutdown();
    join();
  }

  template <typename F>
  void spawn(F&& f) {
    threads_.emplace_back(std::forward<F>(f));
  }

  void join() {
    for (auto& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
  }

 private:
  ds::SlotBudget& budget_;
  std::vector<std::thread> threads_;
};

TEST(SlotBudget, SoleTenantTakesFullCapacity) {
  ds::SlotBudget budget(8);
  // Work conservation: no other shard holds or waits, so the share cap
  // stays disengaged.
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

TEST(SlotBudget, EqualShareCapsEachShardUnderContention) {
  // Capacity 6 over three contending shards: each is capped at 2.
  ds::SlotBudget budget(6);
  ASSERT_EQ(budget.acquire("a", 1), 1);
  ASSERT_EQ(budget.acquire("b", 1), 1);
  EXPECT_EQ(budget.acquire("c", 6), 2);
  // a and b are still under their share of 2: one more slot each.
  EXPECT_EQ(budget.acquire("a", 6), 1);
  EXPECT_EQ(budget.acquire("b", 6), 1);
  EXPECT_EQ(budget.in_use("a"), 2);
  EXPECT_EQ(budget.in_use("b"), 2);
  EXPECT_EQ(budget.in_use("c"), 2);
  budget.release("a", 2);
  budget.release("b", 2);
  budget.release("c", 2);
}

TEST(SlotBudget, ContendedHotShardWakesToItsShare) {
  ds::SlotBudget budget(8);
  // Uncontended, hot grabs everything.
  ASSERT_EQ(budget.acquire("hot", 8), 8);

  // Cold arrives and must block (no free slots). Atomic: the waiter thread
  // writes the grant while wait_for polls it.
  std::atomic<std::int64_t> cold_granted{-1};
  HelperThreads helpers(budget);
  helpers.spawn([&] { cold_granted = budget.acquire("cold", 2); });
  ASSERT_TRUE(wait_for([&] { return budget.waiting() == 1; }));

  // Hot returns its slots. However the wakeup interleaves, the outcome is
  // fixed: cold's share admits its full ask of 2, and hot — now contended —
  // is capped at 8 / 2 = 4.
  budget.release("hot", 8);
  ASSERT_TRUE(wait_for([&] { return cold_granted >= 0; }));
  helpers.join();
  EXPECT_EQ(cold_granted, 2);
  EXPECT_EQ(budget.acquire("hot", 8), 4);
  EXPECT_EQ(budget.in_use("hot"), 4);
  EXPECT_EQ(budget.in_use("cold"), 2);
  budget.release("hot", 4);
  budget.release("cold", 2);
}

TEST(SlotBudget, ShareFloorKeepsEveryShardLive) {
  // Capacity 2 over three active shards: 2 / 3 floors to 0, and the >= 1
  // floor must still admit one slot, so no number of shards can starve a
  // shard out of progress entirely.
  ds::SlotBudget budget(2);
  ASSERT_EQ(budget.acquire("a", 2), 2);  // Sole tenant: everything.
  std::atomic<std::int64_t> b_granted{-1};
  std::atomic<std::int64_t> c_granted{-1};
  HelperThreads helpers(budget);
  helpers.spawn([&] { b_granted = budget.acquire("b", 2); });
  helpers.spawn([&] { c_granted = budget.acquire("c", 2); });
  ASSERT_TRUE(wait_for([&] { return budget.waiting() == 2; }));

  // a still holds a slot, so three shards are active when the freed one
  // goes out. With a zero share both waiters would block again.
  budget.release("a", 1);
  ASSERT_TRUE(wait_for([&] { return budget.waiting() == 1; }));
  EXPECT_EQ(budget.in_use("b") + budget.in_use("c"), 1);

  budget.release("a", 1);
  ASSERT_TRUE(wait_for([&] { return b_granted >= 0 && c_granted >= 0; }));
  helpers.join();
  EXPECT_EQ(b_granted, 1);
  EXPECT_EQ(c_granted, 1);
  budget.release("b", 1);
  budget.release("c", 1);
}

TEST(SlotBudget, ContentionEndsWhenPeerLeaves) {
  // Once a shard fully releases and stops waiting its entry is erased, so
  // the budget tracks only shards in flight, and the other shard is a sole
  // tenant again. Re-acquiring alone recreates the entry with the whole
  // capacity.
  ds::SlotBudget budget(8);
  ASSERT_EQ(budget.acquire("cold", 2), 2);
  ASSERT_EQ(budget.acquire("hot", 8), 4);  // Contended share.
  EXPECT_EQ(budget.tracked_shards(), 2);
  budget.release("hot", 2);
  EXPECT_EQ(budget.tracked_shards(), 2);  // hot still holds 2.
  budget.release("hot", 2);
  budget.release("cold", 2);
  EXPECT_EQ(budget.tracked_shards(), 0);
  EXPECT_EQ(budget.acquire("hot", 8), 8);  // Uncontended again.
  EXPECT_EQ(budget.tracked_shards(), 1);
  budget.release("hot", 8);
  EXPECT_EQ(budget.tracked_shards(), 0);
}

TEST(SlotBudget, ShutdownWakesWaitersWithZeroGrant) {
  ds::SlotBudget budget(2);
  ASSERT_EQ(budget.acquire("m", 2), 2);
  std::int64_t blocked_grant = -1;
  HelperThreads helpers(budget);
  helpers.spawn([&] { blocked_grant = budget.acquire("m", 1); });
  ASSERT_TRUE(wait_for([&] { return budget.waiting() == 1; }));
  budget.shutdown();
  helpers.join();
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
