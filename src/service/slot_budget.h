// Fair global budget of fused sampling slots.
//
// PR 4 bounded peak activation memory with a single first-come budget:
// shards raced for max_fused_batch slots and a hot model that kept the
// budget saturated could starve a cold model's rounds down to whatever
// crumbs were free at the instant its shard asked. The SlotBudget keeps
// the same global bound but makes the division explicit: under contention
// a shard's outstanding slots are capped at an equal share of the
// capacity.
//
// Work conservation: a shard with the budget to itself (no other shard
// holding or waiting) may take the whole capacity — single-model
// deployments behave exactly as before. The share cap only engages while
// another shard holds or wants slots, and every shard's cap is at least 1
// slot, so no number of shards can deadlock a shard out of progress.
//
// Determinism: like its predecessor, the budget decides only WHEN slots
// sample, never what — per-slot RNG streams keep output bytes invariant
// to grant sizes and interleaving.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace diffpattern::service {

class SlotBudget {
 public:
  /// `capacity` is the global fused-slot bound (clamped to >= 1).
  explicit SlotBudget(std::int64_t capacity);
  SlotBudget(const SlotBudget&) = delete;
  SlotBudget& operator=(const SlotBudget&) = delete;

  /// Blocks until `shard` may take at least one slot, then grants
  /// min(wanted, its remaining fair share under contention, free slots).
  /// Returns 0 only after shutdown(). `wanted` < 1 is clamped to 1.
  std::int64_t acquire(const std::string& shard, std::int64_t wanted);

  /// Returns slots taken by acquire(). No-op for granted <= 0.
  void release(const std::string& shard, std::int64_t granted);

  /// Wakes every waiter with a zero grant; subsequent acquires return 0.
  void shutdown();

  std::int64_t capacity() const { return capacity_; }
  /// Slots currently held by `shard` (observability / tests).
  std::int64_t in_use(const std::string& shard) const;
  /// Shards currently blocked in acquire() (observability / tests).
  std::int64_t waiting() const;
  /// Shards with an entry in the budget, i.e. holding or waiting
  /// (observability / tests: idle shards are erased on release).
  std::int64_t tracked_shards() const;

 private:
  struct ShardState {
    std::int64_t in_use = 0;
    std::int64_t waiting = 0;  ///< Threads of this shard blocked in acquire.
  };

  const std::int64_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Only active shards have an entry: release() erases a shard that
  /// holds nothing and has no waiter, so the map stays bounded by the
  /// shards in flight, not every model ever served.
  std::map<std::string, ShardState> shards_;
  std::int64_t total_in_use_ = 0;
  std::int64_t total_waiting_ = 0;
  bool shutdown_ = false;
};

}  // namespace diffpattern::service
