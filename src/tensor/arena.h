// Inference activation arena: planned, lifetime-aware reuse of tensor
// storage across denoising rounds.
//
// A steady-state reverse-diffusion round executes the exact same op
// sequence as the previous round (same model, same batch shape), so it
// requests the exact same sequence of intermediate-activation buffers. An
// ActivationArena exploits that: buffers released by round R's tensors are
// pooled by size and handed back, fill-free of heap traffic, to round R+1.
// The first round for a given batch shape records the working set (every
// acquire misses and grows the pool); every later round is served entirely
// from the pool — zero tensor-storage heap allocations in steady state
// (asserted by tests/test_inference_arena.cpp via tensor_alloc_stats()).
//
// The pool recycles whole std::vector<float> storages rather than carving
// offsets out of one slab. That keeps every buffer an independent heap
// object with its own ASan redzones — slab reuse is exactly where lifetime
// bugs hide, and CI runs these suites under ASan with the arena forced on —
// and it makes ownership trivially safe: a tensor that outlives its scope
// simply keeps (and eventually frees) its vector; nothing ever points into
// arena-owned memory.
//
// Wiring:
//   - Tensor's storage hooks (tensor.cpp) consult the thread-local scope on
//     every storage construction / growth / destruction.
//   - ArenaScope activates an arena for the current thread (RAII). The
//     diffusion sampling loops open one per round, leasing the arena from
//     the model's InferencePlanCache keyed by the round's batch shape —
//     strided sampling narrows the batch as coarse slots finish, and each
//     narrowed shape gets its own plan.
//   - Compute-pool worker threads have no scope installed, so temporaries
//     allocated inside parallel_for bodies would fall back to the plain
//     heap (no inference kernel allocates a tensor there today). With a
//     1-thread pool the caller runs every chunk inline and the arena sees
//     every allocation.
//
// Kill switch: DIFFPATTERN_ARENA=off|0|false disables the feature
// process-wide (the CLI --arena flag lands on set_activation_arena_enabled;
// last explicit choice wins, like the kernel-backend override). Disabled
// means ArenaScope installs nothing and every path behaves exactly as
// before this layer existed. On or off, the bytes are identical: the arena
// only changes where storage lives, never the math (pinned golden digests
// in test_sampling_determinism.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "tensor/tensor.h"

namespace diffpattern::tensor {

/// Process-wide arena kill switch. Defaults from DIFFPATTERN_ARENA at first
/// use ("off"/"0"/"false" disables; anything else, or unset, enables).
bool activation_arena_enabled();
/// Explicit override (ServiceConfig / CLI / tests); last call wins.
void set_activation_arena_enabled(bool enabled);

/// Process-wide arena telemetry (a common/counters.h set; totals are
/// monotone, bytes_reserved is a gauge).
template <class Cells = common::PlainCells>
struct ArenaStatsT {
  using Counter = typename Cells::Counter;
  /// Plan-cache leases served by an existing, idle plan.
  Counter plan_cache_hits{};
  /// Leases that created a new plan (first round at a batch shape) or found
  /// the plan busy on another thread (no reuse happened either way).
  Counter plan_cache_misses{};
  /// Storage acquisitions served from an arena pool (recycled buffer).
  Counter pool_hits{};
  /// Storage acquisitions inside an active scope that had to grow the pool
  /// from the heap (plan recording, or a shape the plan has not seen).
  Counter pool_misses{};
  /// Bytes currently pooled across live arenas. Sampled between rounds this
  /// is the planned working set; mid-round it dips while buffers are out.
  Counter bytes_reserved{};

  template <class F, class... S>
  static void fields(F&& f, S&... s) {
    f("plan_cache_hits", s.plan_cache_hits...);
    f("plan_cache_misses", s.plan_cache_misses...);
    f("pool_hits", s.pool_hits...);
    f("pool_misses", s.pool_misses...);
    f("bytes_reserved", s.bytes_reserved...);
  }
};
using ArenaStats = ArenaStatsT<>;
ArenaStats arena_stats();

/// Size-keyed freelist of recycled tensor storages. Not thread-safe: an
/// arena is leased exclusively (InferencePlanCache) and driven by exactly
/// one thread at a time.
class ActivationArena {
 public:
  ActivationArena() = default;
  ~ActivationArena();
  ActivationArena(const ActivationArena&) = delete;
  ActivationArena& operator=(const ActivationArena&) = delete;

  /// Hands `out` a cleared buffer with capacity >= n. Returns true when the
  /// buffer came from the pool (steady state); false when the pool had to
  /// reserve fresh heap storage into `out` (recording a new plan entry).
  bool acquire(std::vector<float>& out, std::size_t n);

  /// Returns a storage to the pool, keyed by its capacity. Accepts buffers
  /// the arena never handed out (a tensor constructed elsewhere but
  /// destroyed in-scope donates its storage); they pool like any other.
  void release(std::vector<float>&& buffer);

  /// Bytes currently sitting in the pool (capacity, not size).
  std::int64_t pooled_bytes() const { return pooled_bytes_; }

 private:
  void note_pooled(std::int64_t delta_bytes);

  std::unordered_map<std::size_t, std::vector<std::vector<float>>> pool_;
  std::int64_t pooled_bytes_ = 0;
};

/// LRU-bounded map of batch-shape -> ActivationArena owned by a model.
/// lease() is thread-safe; each plan is handed out exclusively, so two
/// threads forwarding the same shape concurrently get one plan + one
/// nullptr (the latter runs arena-less — same bytes, just unpooled).
class InferencePlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 8;

  explicit InferencePlanCache(std::size_t capacity = kDefaultCapacity);
  ~InferencePlanCache() = default;
  InferencePlanCache(const InferencePlanCache&) = delete;
  InferencePlanCache& operator=(const InferencePlanCache&) = delete;

  /// Leases the plan for `key`, creating (and LRU-evicting past capacity)
  /// as needed. Returns nullptr when the feature is disabled or the plan
  /// is currently leased by another thread. Pair with unlease().
  ActivationArena* lease(const Shape& key);
  void unlease(ActivationArena* arena);

  std::size_t plan_count() const;
  std::int64_t evictions() const;

 private:
  struct Entry {
    Shape key;
    std::unique_ptr<ActivationArena> arena;
    bool leased = false;
    std::uint64_t last_used = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::int64_t evictions_ = 0;
};

/// RAII thread-local arena activation. While alive, Tensor storage
/// construction/destruction on this thread routes through the arena.
/// Scopes nest (the previous arena is restored on destruction).
class ArenaScope {
 public:
  /// Activates `arena` (nullptr = inactive scope, all paths unchanged).
  explicit ArenaScope(ActivationArena* arena);
  /// Convenience for the sampling loops: leases `key` from `cache` when
  /// the feature is enabled, activates the lease, and unleases on exit.
  ArenaScope(InferencePlanCache& cache, const Shape& key);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// The arena active on this thread, or nullptr.
  static ActivationArena* current();

 private:
  ActivationArena* previous_;
  ActivationArena* leased_ = nullptr;
  InferencePlanCache* cache_ = nullptr;
};

}  // namespace diffpattern::tensor
