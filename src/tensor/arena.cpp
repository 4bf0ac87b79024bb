#include "tensor/arena.h"

#include "common/contracts.h"

namespace diffpattern::tensor {

namespace {

constinit ArenaStatsT<common::LiveCells> g_stats;

thread_local ActivationArena* t_current_arena = nullptr;

}  // namespace

ArenaStats arena_stats() { return common::snapshot(g_stats); }

// ---- ActivationArena -------------------------------------------------------

ActivationArena::~ActivationArena() {
  // The pooled storages die with the map; only the gauge needs unwinding.
  note_pooled(-pooled_bytes_);
}

void ActivationArena::note_pooled(std::int64_t delta_bytes) {
  pooled_bytes_ += delta_bytes;
  g_stats.bytes_reserved.add(delta_bytes);
}

bool ActivationArena::acquire(std::vector<float>& out, std::size_t n) {
  auto it = pool_.find(n);
  if (it != pool_.end() && !it->second.empty()) {
    out = std::move(it->second.back());
    it->second.pop_back();
    out.clear();
    note_pooled(-static_cast<std::int64_t>(out.capacity() * sizeof(float)));
    return true;
  }
  // Recording pass (or a size the plan has not seen): take heap storage.
  // The buffer joins the pool when its tensor dies, so the next round hits.
  out.clear();
  out.reserve(n);
  return false;
}

void ActivationArena::release(std::vector<float>&& buffer) {
  const auto cap = buffer.capacity();
  if (cap == 0) {
    return;
  }
  pool_[cap].push_back(std::move(buffer));
  note_pooled(static_cast<std::int64_t>(cap * sizeof(float)));
}

// ---- InferencePlanCache ----------------------------------------------------

InferencePlanCache::InferencePlanCache(std::size_t capacity)
    : capacity_(capacity) {
  DP_REQUIRE(capacity >= 1, "InferencePlanCache: capacity must be >= 1");
}

ActivationArena* InferencePlanCache::lease(const Shape& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++tick_;
  for (auto& entry : entries_) {
    if (entry.key == key) {
      if (entry.leased) {
        // Another thread is forwarding this shape right now; the caller
        // runs arena-less. Bytes are unaffected either way.
        g_stats.plan_cache_misses.add();
        return nullptr;
      }
      entry.leased = true;
      entry.last_used = tick_;
      g_stats.plan_cache_hits.add();
      return entry.arena.get();
    }
  }
  g_stats.plan_cache_misses.add();
  if (entries_.size() >= capacity_) {
    // Evict the least-recently-used idle plan. All-leased (would need more
    // concurrent shapes than capacity) simply lets the cache overflow.
    std::size_t victim = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].leased) {
        continue;
      }
      if (victim == entries_.size() ||
          entries_[i].last_used < entries_[victim].last_used) {
        victim = i;
      }
    }
    if (victim < entries_.size()) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
      ++evictions_;
    }
  }
  Entry entry;
  entry.key = key;
  entry.arena = std::make_unique<ActivationArena>();
  entry.leased = true;
  entry.last_used = tick_;
  entries_.push_back(std::move(entry));
  return entries_.back().arena.get();
}

void InferencePlanCache::unlease(ActivationArena* arena) {
  if (arena == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : entries_) {
    if (entry.arena.get() == arena) {
      DP_CHECK(entry.leased, "InferencePlanCache: unlease of idle plan");
      entry.leased = false;
      return;
    }
  }
  DP_CHECK(false, "InferencePlanCache: unlease of unknown plan");
}

std::size_t InferencePlanCache::plan_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::int64_t InferencePlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

// ---- ArenaScope ------------------------------------------------------------

ArenaScope::ArenaScope(InferencePlanCache& cache, const Shape& key)
    : previous_(t_current_arena), leased_(cache.lease(key)), cache_(cache) {
  t_current_arena = leased_;
}

ArenaScope::~ArenaScope() {
  t_current_arena = previous_;
  cache_.unlease(leased_);
}

ActivationArena* ArenaScope::current() { return t_current_arena; }

}  // namespace diffpattern::tensor
