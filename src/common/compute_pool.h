// Persistent compute thread pool for data-parallel numeric kernels.
//
// ComputePool runs parallel-for regions over a fixed set of worker threads;
// the calling thread participates, so a pool of size T uses T cores. Work is
// split into contiguous index chunks that tasks claim with one atomic
// increment each — WHICH thread runs a chunk is nondeterministic, but
// kernels built on top assign whole output rows (or samples) to chunks and
// fix the per-element reduction order, so results are byte-identical for
// any thread count (see src/tensor/parallel.h for the determinism contract).
//
// Fork/join: a region publishes its job and bumps an atomic epoch. Workers
// poll the epoch for a fixed bound (kSpinBound in compute_pool.cpp) after a
// region, yielding between bursts of polls, so back-to-back regions start
// without a kernel wake-up; they park on a condition variable once the
// bound passes, so an idle pool costs no CPU. The caller polls the same way
// until every worker has left the job.
//
// Sizing: the process-wide pool defaults to DIFFPATTERN_THREADS (positive
// integer) when set, else std::thread::hardware_concurrency(), else 1 when
// the runtime reports 0 cores. Explicit sizing goes through
// set_global_compute_threads (the CLI --threads flag and
// ServiceConfig::compute_threads both land there); a requested size of 0 is
// rejected with INVALID_ARGUMENT rather than silently spinning zero workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace diffpattern::common {

/// std::thread::hardware_concurrency(), or 1 when the runtime reports 0.
std::int64_t hardware_thread_count();

/// Auto thread count: DIFFPATTERN_THREADS when set to a positive integer
/// (malformed or non-positive values are ignored), else
/// hardware_thread_count().
std::int64_t default_thread_count();

/// Upper bound on explicit pool sizes. Requests beyond this are almost
/// certainly typos, and each worker costs a kernel thread + stack; sizes
/// above it answer INVALID_ARGUMENT instead of exhausting thread resources.
inline constexpr std::int64_t kMaxComputeThreads = 512;

/// Maps a requested pool size onto an actual one: 1..kMaxComputeThreads is
/// taken verbatim, < 0 means "auto" (default_thread_count), and 0 or an
/// over-limit request is INVALID_ARGUMENT — a pool with zero workers can
/// never make progress.
Result<std::int64_t> resolve_thread_count(std::int64_t requested);

class ComputePool {
 public:
  /// Total parallelism, including the calling thread; spawns threads - 1
  /// workers. threads must be >= 1 (resolve_thread_count enforces this for
  /// user-supplied sizes).
  explicit ComputePool(std::int64_t threads);
  ~ComputePool();
  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  std::int64_t threads() const { return threads_; }

  /// Runs body(chunk_begin, chunk_end) over a partition of [begin, end).
  /// Chunks are contiguous, at least `grain` wide (except the last), and
  /// disjoint; the caller blocks until every chunk has run. Bodies must
  /// write disjoint output ranges and must not throw. Nested calls (from
  /// inside a body) and calls racing on the same pool degrade to inline
  /// serial execution, so the pool never deadlocks on itself.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

 private:
  struct Job {
    const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t chunk = 0;
    std::int64_t chunks = 0;
    std::atomic<std::int64_t> next{0};  // Next unclaimed chunk.
  };

  void worker_loop();
  /// Stops and joins the workers.
  void shut_down();
  /// Spins, then parks, until the epoch differs from `seen`; false on
  /// shutdown.
  bool await_region(std::uint64_t seen);
  /// Claims and runs chunks of `job` until none remain.
  static void run_chunks(Job& job);

  const std::int64_t threads_;
  /// Bumped per region; the word idle workers spin on, alone on its line.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<Job*> job_{nullptr};  // The region in flight.
  std::atomic<int> inside_{0};   // Workers that may still touch *job_.
  std::atomic<int> parked_{0};   // Workers blocked on wake_cv_.
  std::atomic<bool> busy_{false};  // A caller owns the pool.
  std::atomic<bool> shutdown_{false};
  std::mutex mutex_;                 // Guards the park/wake handshake.
  std::condition_variable wake_cv_;  // Parked workers: new region/shutdown.
  std::vector<std::thread> workers_;
};

/// Process-wide pool used by the tensor kernels. Lazily constructed at
/// default_thread_count() on first use. Returned as a shared handle:
/// callers (tensor::parallel_for) pin the pool for the duration of a
/// region, so a concurrent resize can never destroy a pool that still has
/// regions in flight — the displaced pool drains and dies with its last
/// holder.
std::shared_ptr<ComputePool> global_compute_pool();

/// Resizes the process-wide pool. In-flight regions keep running on the
/// displaced pool (see global_compute_pool); subsequent kernel calls use
/// the new size. requested follows resolve_thread_count semantics: 0 is
/// INVALID_ARGUMENT, < 0 re-applies the auto default.
Status set_global_compute_threads(std::int64_t requested);

/// Current size of the process-wide pool (constructs it if needed).
std::int64_t global_compute_threads();

/// One-line backend report for observability surfaces (--stats, benches):
/// the pool size plus how it was chosen, e.g. "4 thread(s), sized by
/// DIFFPATTERN_THREADS" / "8 thread(s), auto (hardware)" / "2 thread(s),
/// sized explicitly". Constructs the pool if needed.
std::string compute_pool_summary();

}  // namespace diffpattern::common
