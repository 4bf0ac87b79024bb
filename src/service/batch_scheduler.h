// Sharded sampling scheduler: one batcher shard per registered model.
//
// PR 1's service ran every model through a single batcher thread; a burst
// on one model head-of-line blocked every other model's rounds. The
// BatchScheduler splits that monolith: each model gets its own shard (a
// queue + batcher thread), spawned lazily on the first request that names
// the model and joined at shutdown(). Shards run independently, so traffic
// on one model never delays another model's rounds — but peak memory is
// still bounded globally: before running a round, a shard acquires slots
// from a shared admission budget of max_fused_batch fused slots, so the
// sum of concurrently sampled slots across ALL shards never exceeds what
// one fused batch was allowed to use before.
//
// Determinism: a slot's RNG stream depends only on (request seed, slot
// index), never on round composition, shard count, or admission grants —
// so sharding is invisible in every request's output.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "geometry/grid.h"
#include "service/model_registry.h"
#include "service/slot_budget.h"

namespace diffpattern::service {

/// One queued sampling job. Slots [0, count) map 1:1 onto output
/// topologies; each slot's noise comes from its own derived stream, so a
/// job's output is invariant to how rounds chunk or fuse the slots.
///
/// Threading contract: between submit() and the completion of `done`, all
/// mutable fields belong to the owning shard thread. The submitter may read
/// them again once the future resolves (promise/future ordering publishes
/// the writes). `on_slots_sampled` fires on the shard thread, with no
/// scheduler locks held, strictly before `done` is fulfilled.
struct SampleJob {
  std::shared_ptr<const ModelArtifacts> artifacts;
  std::int64_t count = 0;
  std::uint64_t seed = 0;
  /// Reverse-diffusion stride for every slot of this job (1 = full
  /// schedule). Jobs with different strides still fuse into one round:
  /// the strided sampler walks each slot's own subsequence and narrows
  /// the batch as coarse slots finish. Validated upstream to [1, K].
  std::int64_t stride = 1;

  /// Scheduling class: shards keep their queues ordered by (priority
  /// descending, enqueue order) and rounds pop from the front, so a
  /// higher-priority job samples first. Per-slot RNG streams make the
  /// resulting round composition invisible in every job's bytes.
  std::int32_t priority = 0;
  /// Deadline policy: when `has_deadline` and `deadline` has passed at
  /// round formation, the job is cancelled with DEADLINE_EXCEEDED before
  /// it can occupy fused slots — whether still queued or already
  /// partially sampled.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  /// Streaming hook: slots [begin, end) of this job finished sampling and
  /// `grids[begin..end)` are valid. The streaming path uses it to start
  /// legalization for those topologies immediately, while later rounds are
  /// still sampling. May be empty (collect-all jobs).
  std::function<void(std::int64_t begin, std::int64_t end)> on_slots_sampled;

  /// Optional cancellation predicate (the submitter guarantees everything
  /// it captures outlives `done`). When it returns true at round
  /// formation, the job's remaining slots are abandoned and the job
  /// finishes with UNAVAILABLE — the service points it at the request's
  /// downstream-failure flag, so a doomed request stops burning sampling
  /// rounds and admission budget. Called only from the shard thread.
  std::function<bool()> cancelled;

  std::int64_t next_slot = 0;  // Slots already handed to a round.
  std::int64_t done_slots = 0;
  std::vector<geometry::BinaryGrid> grids;
  double sampling_seconds = 0.0;
  std::int64_t fused_batch_slots = 0;
  /// U-Net slot-evaluations this job's slots consumed across its rounds
  /// (slots * the step plan's length, ceil(K_eps / stride), when it
  /// completes).
  std::int64_t net_evals = 0;
  common::Status error;
  std::promise<void> done;
  bool fulfilled = false;

  void finish() {
    if (!fulfilled) {
      fulfilled = true;
      done.set_value();
    }
  }
};

class BatchScheduler {
 public:
  /// `max_fused_batch` is the global admission budget (fused sampling slots
  /// in flight across all shards); values < 1 are clamped to 1. `counters`
  /// must outlive the scheduler. Under contention a shard's outstanding
  /// slots are capped at an equal share of the budget, so a hot model
  /// cannot crowd the others out (see SlotBudget).
  BatchScheduler(std::int64_t max_fused_batch, common::CounterBlock& counters);
  ~BatchScheduler();
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueues a job on the shard for job->artifacts->name, spawning the
  /// shard on first use. A shard lives until shutdown(), serving every
  /// revision the name is re-registered with. UNAVAILABLE after shutdown().
  common::Status submit(std::shared_ptr<SampleJob> job);

  /// Fails all queued jobs with UNAVAILABLE and joins every shard thread.
  /// Subsequent submits are rejected. Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Shard {
    std::string model;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::shared_ptr<SampleJob>> queue;
    std::thread thread;
  };

  void shard_loop(Shard& shard);
  /// Runs one fused round for `shard`. Called with shard.mutex held; drops
  /// it for sampling and re-acquires before returning.
  void run_round(Shard& shard, std::unique_lock<std::mutex>& lock);
  /// Inserts `job` into the shard queue keeping it ordered by (priority
  /// descending, insertion order): behind every job of >= its priority,
  /// ahead of strictly lower priorities. Requeued leftovers use the same
  /// rule, so an oversized job still yields to its same-priority peers.
  static void enqueue_ordered(Shard& shard, std::shared_ptr<SampleJob> job);
  /// Fails (DEADLINE_EXCEEDED) and removes every queued job whose deadline
  /// has passed. Called with shard.mutex held at round formation, so an
  /// expired job never occupies fused slots.
  void expire_deadlines(Shard& shard);

  const std::int64_t max_fused_batch_;
  common::CounterBlock& counters_;

  std::mutex shards_mutex_;
  std::map<std::string, std::unique_ptr<Shard>> shards_;
  bool shutdown_requested_ = false;
  /// Read by shard threads without shards_mutex_ (they must not take it).
  std::atomic<bool> shutdown_{false};

  /// Fair global fused-slot budget shared by every shard.
  SlotBudget budget_;
};

}  // namespace diffpattern::service
