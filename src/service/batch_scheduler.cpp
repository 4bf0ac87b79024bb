#include "service/batch_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "diffusion/diffusion.h"
#include "layout/deep_squish.h"

namespace diffpattern::service {

namespace {

// Stream tag for common::derive_seed: sampling slot i of a request always
// draws from derive_seed(seed, kSampleStream, i), independent of which
// shard, round, or admission grant carried it.
constexpr std::uint64_t kSampleStream = 0x53414D50;  // "SAMP"

}  // namespace

BatchScheduler::BatchScheduler(std::int64_t max_fused_batch,
                               common::CounterBlock& counters)
    : max_fused_batch_(std::max<std::int64_t>(1, max_fused_batch)),
      counters_(counters),
      budget_(std::max<std::int64_t>(1, max_fused_batch)) {}

BatchScheduler::~BatchScheduler() { shutdown(); }

common::Status BatchScheduler::submit(std::shared_ptr<SampleJob> job) {
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  if (shutdown_requested_) {
    return common::Status::Unavailable("PatternService is shutting down");
  }
  const auto& model = job->artifacts->name;
  auto it = shards_.find(model);
  if (it == shards_.end()) {
    auto fresh = std::make_unique<Shard>();
    fresh->model = model;
    // Insert BEFORE starting the thread: if the map node allocation threw
    // with the thread already running, unwinding would destroy a Shard
    // that is still in use (and a joinable std::thread -> terminate).
    it = shards_.emplace(model, std::move(fresh)).first;
    Shard* raw = it->second.get();
    try {
      raw->thread = std::thread([this, raw] { shard_loop(*raw); });
    } catch (...) {
      shards_.erase(it);  // Thread never started; the Shard is inert.
      return common::Status::Unavailable(
          "could not start a batcher shard for model '" + model + "'");
    }
    counters_.shards_active.add();
  }
  Shard* shard = it->second.get();
  // Enqueue AND notify under shards_mutex_: shutdown extracts the shards
  // from the map under the same lock before destroying them, so the cv we
  // notify cannot be freed underneath us. The gauge increments BEFORE the
  // push — the shard thread decrements only after popping, so the
  // queue_depth gauge can never be observed negative.
  counters_.queue_depth_peak.raise_to(counters_.queue_depth.add());
  {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    enqueue_ordered(*shard, std::move(job));
  }
  shard->cv.notify_one();
  return common::Status::Ok();
}

void BatchScheduler::enqueue_ordered(Shard& shard,
                                     std::shared_ptr<SampleJob> job) {
  // Insert before the first strictly-lower-priority job: queues stay
  // sorted by (priority descending, insertion order), so round formation
  // can keep popping from the front.
  const auto pos = std::find_if(
      shard.queue.begin(), shard.queue.end(),
      [&job](const std::shared_ptr<SampleJob>& queued) {
        return queued->priority < job->priority;
      });
  shard.queue.insert(pos, std::move(job));
}

void BatchScheduler::expire_deadlines(Shard& shard) {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = shard.queue.begin(); it != shard.queue.end();) {
    auto& job = *it;
    if (!job->has_deadline || job->deadline > now) {
      ++it;
      continue;
    }
    if (job->error.ok()) {
      job->error = common::Status::DeadlineExceeded(
          job->next_slot > 0
              ? "deadline expired after " + std::to_string(job->next_slot) +
                    " of " + std::to_string(job->count) + " slots sampled"
              : "deadline expired while the request was queued");
    }
    counters_.deadlines_expired.add();
    counters_.queue_depth.add(-1);
    job->finish();
    it = shard.queue.erase(it);
  }
}

void BatchScheduler::shutdown() {
  std::map<std::string, std::unique_ptr<Shard>> shards;
  {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    if (shutdown_requested_) {
      return;
    }
    shutdown_requested_ = true;
    shards.swap(shards_);
  }
  shutdown_.store(true, std::memory_order_relaxed);
  budget_.shutdown();  // Wakes every shard blocked on the slot budget.
  for (auto& [model, shard] : shards) {
    // Acquire the shard mutex (empty critical section) between the store
    // and the notify: a shard thread that already evaluated its wait
    // predicate re-acquires the mutex after us and re-reads shutdown_, so
    // the wakeup cannot be lost between its check and its block.
    { const std::lock_guard<std::mutex> shard_lock(shard->mutex); }
    shard->cv.notify_all();
  }
  for (auto& [model, shard] : shards) {
    shard->thread.join();
    counters_.shards_active.add(-1);
  }
}

void BatchScheduler::shard_loop(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (;;) {
    shard.cv.wait(lock, [&] {
      return !shard.queue.empty() || shutdown_.load(std::memory_order_relaxed);
    });
    if (shutdown_.load(std::memory_order_relaxed)) {
      for (auto& job : shard.queue) {
        job->error =
            common::Status::Unavailable("PatternService is shutting down");
        counters_.queue_depth.add(-1);
        job->finish();
      }
      shard.queue.clear();
      return;
    }
    try {
      run_round(shard, lock);
    } catch (...) {
      // Last-ditch guard (e.g. bad_alloc building round bookkeeping): fail
      // every queued job rather than terminating the shard thread — no
      // exception may cross the service boundary.
      if (!lock.owns_lock()) {
        lock.lock();  // run_round may throw from its unlocked section.
      }
      for (auto& job : shard.queue) {
        if (job->error.ok()) {
          job->error =
              common::Status::Internal("sampling round failed unexpectedly");
        }
        counters_.queue_depth.add(-1);
        job->finish();
      }
      shard.queue.clear();
    }
  }
}

/// Acquires admission budget, pops up to that many slots for ONE model
/// revision off the shard queue, runs a single fused reverse-diffusion
/// batch over them (dropping the lock for the duration), fires streaming
/// hooks, and completes any job whose slots are all sampled.
void BatchScheduler::run_round(Shard& shard,
                               std::unique_lock<std::mutex>& lock) {
  // Cancel expired jobs first: they must never occupy fused slots, and an
  // expired job at the front must not choose the round's model revision.
  expire_deadlines(shard);
  if (shard.queue.empty()) {
    return;
  }
  // How many slots the front model revision could use this round. The
  // queue is ordered by (priority, enqueue order), so the front job is the
  // most urgent and its model revision wins the round; jobs for a
  // different revision (hot reload mid-queue) are skipped here and
  // batched by a later round.
  const ModelArtifacts* model = shard.queue.front()->artifacts.get();
  std::int64_t wanted = 0;
  for (const auto& job : shard.queue) {
    if (job->artifacts.get() == model) {
      wanted += job->count - job->next_slot;
    }
  }
  wanted = std::min(wanted, max_fused_batch_);

  // Admission: wait for a share of the global fused-slot budget. The wait
  // happens without shard.mutex so submits keep landing meanwhile; at
  // shutdown() the budget wakes it with a grant of 0.
  lock.unlock();
  const auto granted = budget_.acquire(shard.model, wanted);
  lock.lock();
  if (granted == 0) {
    return;  // Shutdown: the loop fails the queue.
  }
  // The budget wait can be long under contention; sweep again so a job
  // that expired during it is cancelled instead of sampled.
  expire_deadlines(shard);

  struct RoundEntry {
    std::shared_ptr<SampleJob> job;
    std::int64_t slot_begin = 0;
    std::int64_t slots = 0;
  };
  std::vector<RoundEntry> round;
  // Fails every job already popped into `round` (they are no longer in
  // shard.queue, so shard_loop's catch-all would miss them) and returns
  // the admission grant. The exception-path cleanup for this function:
  // jobs never hang in done.wait() and the budget never leaks.
  const auto fail_round = [&](const common::Status& status) {
    for (auto& entry : round) {
      if (entry.job->error.ok()) {
        entry.job->error = status;
      }
      entry.job->finish();
    }
    budget_.release(shard.model, granted);
  };

  std::shared_ptr<SampleJob> leftover;  // Partially-handed job, if any.
  bool leftover_requeued = false;
  try {
    std::int64_t budget = granted;
    for (auto it = shard.queue.begin();
         it != shard.queue.end() && budget > 0;) {
      auto& job = *it;
      if (job->cancelled && job->cancelled()) {
        // The submitter already failed downstream; stop sampling for it.
        if (job->error.ok()) {
          job->error = common::Status::Unavailable(
              "request abandoned after a downstream failure");
        }
        counters_.jobs_cancelled.add();
        counters_.queue_depth.add(-1);
        job->finish();
        it = shard.queue.erase(it);
        continue;
      }
      if (job->artifacts.get() != model) {
        ++it;
        continue;
      }
      const auto take = std::min(budget, job->count - job->next_slot);
      round.push_back(RoundEntry{job, job->next_slot, take});
      job->next_slot += take;
      budget -= take;
      if (job->next_slot < job->count) {
        leftover = job;
      } else {
        counters_.queue_depth.add(-1);
      }
      it = shard.queue.erase(it);
    }
    if (round.empty()) {
      budget_.release(shard.model, granted);
      return;
    }
    if (leftover != nullptr) {
      // Requeue the unfinished job behind its same-priority peers so the
      // shard's other jobs get the next round instead of being blocked by
      // one oversized request (it still outranks lower priorities).
      // Per-slot RNG streams make the round composition irrelevant to
      // every job's output.
      enqueue_ordered(shard, leftover);
      leftover_requeued = true;
    }
  } catch (...) {
    // bad_alloc growing `round` or requeueing: fail what was popped (a
    // job still in the queue keeps its turn with the next round).
    if (leftover != nullptr && !leftover_requeued) {
      counters_.queue_depth.add(-1);  // Popped but not requeued.
    }
    fail_round(common::Status::Internal(
        "sampling round setup failed unexpectedly"));
    return;
  }

  std::int64_t total_slots = 0;
  for (const auto& entry : round) {
    total_slots += entry.slots;
  }

  lock.unlock();
  common::Status round_error;
  tensor::Tensor samples;
  double round_seconds = 0.0;
  const auto folded = model->config.folded_side();
  if (!folded.ok()) {
    round_error = folded.status();
  } else {
    try {
      std::vector<common::Rng> streams;
      streams.reserve(static_cast<std::size_t>(total_slots));
      std::vector<std::int64_t> strides;
      strides.reserve(static_cast<std::size_t>(total_slots));
      for (const auto& entry : round) {
        for (std::int64_t i = 0; i < entry.slots; ++i) {
          streams.emplace_back(common::derive_seed(
              entry.job->seed, kSampleStream,
              static_cast<std::uint64_t>(entry.slot_begin + i)));
          strides.push_back(entry.job->stride);
        }
      }
      std::vector<common::Rng*> stream_ptrs;
      stream_ptrs.reserve(streams.size());
      for (auto& s : streams) {
        stream_ptrs.push_back(&s);
      }
      common::Timer timer;
      // Jobs with different strides fuse into ONE round: each slot walks
      // its own step subsequence and the batch narrows as coarse-stride
      // slots finish. The hook sees the per-round ACTIVE batch, so
      // net_evals (and the fill ratio derived from rounds) reflect work
      // actually executed, not nominal slots.
      samples = diffusion::sample_streams_strided(
          *model->model, *model->schedule, *folded, *folded,
          diffusion::SamplerConfig{}, stream_ptrs, strides,
          [this](std::int64_t /*k*/, std::int64_t batch) {
            counters_.denoise_steps.add();
            counters_.net_evals.add(batch);
          });
      round_seconds = timer.seconds();
    } catch (const std::exception& e) {
      round_error = common::exception_to_status(e);
    } catch (...) {
      round_error =
          common::Status::Internal("sampling round failed unexpectedly");
    }
  }
  budget_.release(shard.model, granted);
  counters_.rounds_executed.add();
  counters_.fused_slots_total.add(total_slots);
  counters_.max_round_slots.raise_to(total_slots);

  try {
    layout::DeepSquishConfig fold;
    fold.channels = model->config.channels;
    const auto per_slot =
        samples.numel() > 0 ? samples.numel() / total_slots : 0;
    std::int64_t cursor = 0;
    // Job bookkeeping needs no lock: until its promise resolves, a job's
    // mutable state belongs to this shard thread (see SampleJob contract).
    for (auto& entry : round) {
      auto& job = *entry.job;
      if (!round_error.ok()) {
        if (job.error.ok()) {
          job.error = round_error;
        }
        cursor += entry.slots;
        continue;
      }
      for (std::int64_t i = 0; i < entry.slots; ++i) {
        tensor::Tensor one({model->config.channels, *folded, *folded});
        std::copy(samples.data() + (cursor + i) * per_slot,
                  samples.data() + (cursor + i + 1) * per_slot, one.data());
        job.grids[static_cast<std::size_t>(entry.slot_begin + i)] =
            layout::unfold_topology(one, fold);
      }
      cursor += entry.slots;
      job.done_slots += entry.slots;
      job.sampling_seconds += round_seconds *
                              static_cast<double>(entry.slots) /
                              static_cast<double>(total_slots);
      job.fused_batch_slots = std::max(job.fused_batch_slots, total_slots);
      const auto steps_run =
          diffusion::plan_length(*model->schedule, job.stride);
      job.net_evals += entry.slots * steps_run;
      counters_.steps_skipped.add(entry.slots *
                                 (model->schedule->steps() - steps_run));
      // Hook BEFORE finish(): the streaming path counts submitted slots in
      // the hook and trusts that no hook fires after the job's future
      // resolves.
      if (job.on_slots_sampled) {
        job.on_slots_sampled(entry.slot_begin,
                             entry.slot_begin + entry.slots);
      }
    }
  } catch (...) {
    // bad_alloc unfolding a slot or inside a streaming hook: the budget is
    // already released; fail every round job that has not errored yet so
    // no caller hangs (slots a hook already fanned out still drain —
    // the service waits on them before reading the error).
    round_error =
        common::Status::Internal("sampling round delivery failed");
    for (auto& entry : round) {
      if (entry.job->error.ok()) {
        entry.job->error = round_error;
      }
    }
  }
  for (auto& entry : round) {
    auto& job = *entry.job;
    if (!job.error.ok() || job.done_slots == job.count) {
      job.finish();
    }
  }

  lock.lock();
  if (!round_error.ok()) {
    // Failed jobs may still hold unhanded slots in the queue; drop them so
    // later rounds don't sample for an already-answered request.
    const auto failed = [](const std::shared_ptr<SampleJob>& job) {
      return !job->error.ok();
    };
    for (const auto& job : shard.queue) {
      if (failed(job)) {
        counters_.queue_depth.add(-1);
      }
    }
    shard.queue.erase(
        std::remove_if(shard.queue.begin(), shard.queue.end(), failed),
        shard.queue.end());
  }
}

}  // namespace diffpattern::service
