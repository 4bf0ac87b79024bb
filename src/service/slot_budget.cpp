#include "service/slot_budget.h"

#include <algorithm>

namespace diffpattern::service {

SlotBudget::SlotBudget(std::int64_t capacity)
    : capacity_(std::max<std::int64_t>(1, capacity)) {}

std::int64_t SlotBudget::acquire(const std::string& shard,
                                 std::int64_t wanted) {
  wanted = std::max<std::int64_t>(1, wanted);
  std::unique_lock<std::mutex> lock(mutex_);
  ShardState& state = shards_[shard];
  for (;;) {
    if (shutdown_) {
      return 0;
    }
    // Every entry is active (holding or waiting): release() erases idle
    // ones, and this shard's own entry exists from above. So the equal
    // share is capacity over the entries, floored at 1, and a sole tenant
    // takes the whole capacity (work-conserving).
    const auto share = std::max<std::int64_t>(
        1, capacity_ / static_cast<std::int64_t>(shards_.size()));
    const std::int64_t available = capacity_ - total_in_use_;
    const std::int64_t headroom = share - state.in_use;
    const std::int64_t granted =
        std::min({wanted, available, headroom});
    if (granted >= 1) {
      state.in_use += granted;
      total_in_use_ += granted;
      return granted;
    }
    state.waiting++;
    total_waiting_++;
    cv_.wait(lock);
    state.waiting--;
    total_waiting_--;
  }
}

void SlotBudget::release(const std::string& shard, std::int64_t granted) {
  if (granted <= 0) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = shards_.find(shard);
    if (it != shards_.end()) {
      ShardState& state = it->second;
      state.in_use = std::max<std::int64_t>(0, state.in_use - granted);
      // An idle entry holds no state. A blocked acquirer keeps waiting > 0,
      // so no reference held across its wait is ever erased.
      if (state.in_use == 0 && state.waiting == 0) {
        shards_.erase(it);
      }
    }
    total_in_use_ = std::max<std::int64_t>(0, total_in_use_ - granted);
  }
  cv_.notify_all();
}

void SlotBudget::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

std::int64_t SlotBudget::in_use(const std::string& shard) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = shards_.find(shard);
  return it != shards_.end() ? it->second.in_use : 0;
}

std::int64_t SlotBudget::waiting() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_waiting_;
}

std::int64_t SlotBudget::tracked_shards() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(shards_.size());
}

}  // namespace diffpattern::service
