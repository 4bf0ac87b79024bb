#include "common/compute_pool.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/contracts.h"

namespace diffpattern::common {

namespace {

/// True while this thread is executing a parallel-for body; nested regions
/// (and regions racing on a busy pool) run inline instead of deadlocking.
thread_local bool t_in_region = false;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// How long a thread spins on pool state before it blocks: an idle worker
/// parks on the condition variable, a caller waiting for its workers
/// yields. Long enough to bridge the gaps between the back-to-back regions
/// of a training step, short enough that an idle pool costs no CPU.
constexpr auto kSpinBound = std::chrono::microseconds(100);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until ready() holds or kSpinBound passes; returns ready(). Every
/// 64 polls the thread yields, so on a host with fewer free cores than
/// pool threads a spinner hands its core to the thread doing the work.
template <typename Ready>
bool spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBound;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) {
        return true;
      }
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
    std::this_thread::yield();
  }
}

}  // namespace

std::int64_t hardware_thread_count() {
  const auto hw = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  return hw >= 1 ? hw : 1;  // The standard allows 0 ("unknown"); never spin
                            // up a zero-thread pool because of it.
}

namespace {

/// DIFFPATTERN_THREADS when set to a usable positive integer, else -1
/// (unset, malformed, or out-of-range values are all "not in effect").
std::int64_t env_thread_count() {
  const char* env = std::getenv("DIFFPATTERN_THREADS");
  if (env == nullptr) {
    return -1;
  }
  const std::string text(env);
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc{} && end == text.data() + text.size() && value >= 1 &&
      value <= kMaxComputeThreads) {
    return value;
  }
  return -1;
}

}  // namespace

std::int64_t default_thread_count() {
  // Malformed or out-of-range env values fall through to the hardware
  // default rather than crashing a process over an env typo.
  const auto from_env = env_thread_count();
  return from_env >= 1 ? from_env : hardware_thread_count();
}

Result<std::int64_t> resolve_thread_count(std::int64_t requested) {
  if (requested == 0) {
    return Status::InvalidArgument(
        "thread count 0 is invalid: a zero-worker pool can never run its "
        "queue (use a negative value for the auto default)");
  }
  if (requested > kMaxComputeThreads) {
    return Status::InvalidArgument(
        "thread count " + std::to_string(requested) + " exceeds the limit " +
        std::to_string(kMaxComputeThreads));
  }
  return requested > 0 ? requested : default_thread_count();
}

ComputePool::ComputePool(std::int64_t threads) : threads_(threads) {
  DP_REQUIRE(threads >= 1, "ComputePool: need at least one thread");
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  try {
    for (std::int64_t i = 0; i < threads - 1; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Thread-resource exhaustion mid-spawn: join what started (destroying a
    // joinable std::thread would std::terminate) and let the error
    // propagate as an exception the service layer converts to a Status.
    shut_down();
    throw;
  }
}

ComputePool::~ComputePool() { shut_down(); }

void ComputePool::shut_down() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_.store(true);
  }
  wake_cv_.notify_all();
  for (auto& t : workers_) {
    t.join();
  }
}

void ComputePool::run_chunks(Job& job) {
  for (;;) {
    const auto c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) {
      return;
    }
    const auto chunk_begin = job.begin + c * job.chunk;
    (*job.body)(chunk_begin, std::min(chunk_begin + job.chunk, job.end));
  }
}

bool ComputePool::await_region(std::uint64_t seen) {
  const auto moved = [&] {
    return epoch_.load(std::memory_order_acquire) != seen ||
           shutdown_.load(std::memory_order_relaxed);
  };
  if (!spin_until(moved)) {
    std::unique_lock<std::mutex> lock(mutex_);
    // parked_ is raised before the epoch is re-read (both seq_cst), and a
    // caller bumps the epoch before it reads parked_: either this worker
    // sees the new epoch or the caller sees it parked and notifies.
    parked_.fetch_add(1);
    wake_cv_.wait(lock, [&] { return epoch_.load() != seen || shutdown_; });
    parked_.fetch_sub(1);
  }
  return !shutdown_.load();
}

void ComputePool::worker_loop() {
  t_in_region = true;  // A worker only ever runs bodies.
  std::uint64_t seen = 0;
  while (await_region(seen)) {
    seen = epoch_.load(std::memory_order_acquire);
    // inside_ is raised before job_ is read (both seq_cst), and the caller
    // clears job_ before it waits for inside_ to drain: a worker that can
    // still see a job is one the caller waits for.
    inside_.fetch_add(1);
    if (Job* job = job_.load()) {
      run_chunks(*job);
    }
    inside_.fetch_sub(1, std::memory_order_release);
  }
}

void ComputePool::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const auto range = end - begin;
  if (range <= 0) {
    return;
  }
  grain = std::max<std::int64_t>(1, grain);
  bool idle = false;
  if (threads_ == 1 || range <= grain || t_in_region ||
      !busy_.compare_exchange_strong(idle, true,
                                     std::memory_order_acquire)) {
    // Serial, nested, or racing another caller's region: run inline rather
    // than queueing (regions are rare enough that fairness is not worth
    // the complexity).
    body(begin, end);
    return;
  }
  Job job;
  job.body = &body;
  job.begin = begin;
  job.end = end;
  // Over-decompose (4 chunks per thread, floored by grain) so dynamic chunk
  // claiming load-balances uneven rows; chunk boundaries never affect
  // results because bodies own disjoint output ranges.
  const auto max_chunks = std::min(threads_ * 4, ceil_div(range, grain));
  job.chunk = std::max(grain, ceil_div(range, max_chunks));
  job.chunks = ceil_div(range, job.chunk);
  job_.store(&job);
  epoch_.fetch_add(1);
  if (parked_.load() > 0) {
    // Taking the mutex orders this notify after a parking worker's wait.
    { const std::lock_guard<std::mutex> lock(mutex_); }
    wake_cv_.notify_all();
  }
  t_in_region = true;
  run_chunks(job);
  t_in_region = false;
  // Every chunk is claimed; wait for the workers still inside the job to
  // finish theirs (their release decrements publish the chunks' writes).
  job_.store(nullptr);
  const auto drained = [&] {
    return inside_.load(std::memory_order_acquire) == 0;
  };
  while (!spin_until(drained)) {
    std::this_thread::yield();
  }
  busy_.store(false, std::memory_order_release);
}

namespace {

std::mutex g_pool_mutex;
std::shared_ptr<ComputePool> g_pool;  // NOLINT: intentional process lifetime.
/// How the current pool size was chosen (guarded by g_pool_mutex) — pure
/// observability, surfaced by compute_pool_summary().
const char* g_pool_sizing = "auto";

const char* auto_sizing_source() {
  // Only credit the env var when its value actually took effect —
  // a malformed DIFFPATTERN_THREADS was ignored, and saying otherwise
  // would send an operator debugging pool sizing down the wrong path.
  return env_thread_count() >= 1 ? "sized by DIFFPATTERN_THREADS"
                                 : "auto (hardware)";
}

std::shared_ptr<ComputePool> locked_pool() {
  if (g_pool == nullptr) {
    g_pool = std::make_shared<ComputePool>(default_thread_count());
    g_pool_sizing = auto_sizing_source();
  }
  return g_pool;
}

}  // namespace

std::shared_ptr<ComputePool> global_compute_pool() {
  const std::lock_guard<std::mutex> lock(g_pool_mutex);
  return locked_pool();
}

Status set_global_compute_threads(std::int64_t requested) {
  auto resolved = resolve_thread_count(requested);
  if (!resolved.ok()) {
    return resolved.status();
  }
  const std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool != nullptr && g_pool->threads() == *resolved) {
    return Status::Ok();
  }
  // Regions in flight hold their own shared_ptr (global_compute_pool), so
  // the displaced pool finishes them and is destroyed by its last holder.
  g_pool = std::make_shared<ComputePool>(*resolved);
  g_pool_sizing =
      requested > 0 ? "sized explicitly" : auto_sizing_source();
  return Status::Ok();
}

std::int64_t global_compute_threads() {
  const std::lock_guard<std::mutex> lock(g_pool_mutex);
  return locked_pool()->threads();
}

std::string compute_pool_summary() {
  const std::lock_guard<std::mutex> lock(g_pool_mutex);
  const auto threads = locked_pool()->threads();
  return std::to_string(threads) + " thread(s), " + g_pool_sizing;
}

}  // namespace diffpattern::common
