#include "service/pattern_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "common/timer.h"
#include "diffusion/diffusion.h"
#include "legalize/constraints.h"
#include "service/batch_scheduler.h"
#include "service/worker_pool.h"
#include "tensor/arena.h"
#include "tensor/simd.h"
#include "unet/unet.h"

namespace diffpattern::service {

namespace {

// Stream tag for common::derive_seed: topology slot i of a request always
// legalizes with derive_seed(seed, kLegalizeStream, i), independent of
// worker scheduling or delivery order. (The sampling tag lives in the
// BatchScheduler.)
constexpr std::uint64_t kLegalizeStream = 0x4C45474C;  // "LEGL"

/// Scope guard pairing AdmissionController::admit with its release: the
/// window slot opens again on every exit path once the request's job has
/// left the system.
struct AdmissionGuard {
  AdmissionController& admission;
  const std::string& model;
  ~AdmissionGuard() { admission.release(model); }
};

/// Collect-all shape shared by generate() and legalize_topologies().
GenerateResult assemble_result(GenerateStats stats,
                               std::vector<StreamedPattern> slots) {
  GenerateResult result;
  result.stats = stats;
  result.patterns = assemble_stream_patterns(std::move(slots));
  return result;
}

/// Shared execution state for one request's legalization fan-out +
/// streaming delivery. Worker tasks hold a shared_ptr; the issuing thread
/// blocks until slots_done == slots_submitted, so `callback` (which lives
/// on the issuer's stack) is never dangling when invoked.
struct StreamExec {
  std::shared_ptr<const ModelArtifacts> artifacts;
  drc::DesignRules rules;
  std::int64_t geometries = 1;
  std::uint64_t seed = 0;
  const StreamCallback* callback = nullptr;  // Null: no push deliveries.
  /// Collect-all sink (generate / legalize_topologies): slots are MOVED
  /// here instead of copied through the callback. Mutually exclusive with
  /// `callback`.
  std::vector<StreamedPattern>* collect = nullptr;
  /// Pull streams only: set once the consumer destroyed its StreamHandle.
  /// The delivery callback then drops the pattern, and legalize_slot
  /// answers UNAVAILABLE (a cancellation, not an INTERNAL fault).
  const std::atomic<bool>* abandoned = nullptr;
  bool consumer_gone() const {
    return abandoned != nullptr && abandoned->load(std::memory_order_relaxed);
  }

  /// Set (sticky) whenever first_error is assigned; the sampling job's
  /// cancel flag points here so the shard stops sampling for a request
  /// that is already failing.
  std::atomic<bool> failed{false};

  /// Serializes callback invocations WITHOUT holding `mutex`: the shard
  /// thread takes `mutex` in submit_slots, so a slow consumer callback
  /// must never stall the next sampling round behind it.
  std::mutex delivery_mutex;
  std::mutex mutex;
  std::condition_variable cv;
  std::int64_t slots_submitted = 0;  // Legalization tasks handed to workers.
  std::int64_t slots_done = 0;
  GenerateStats stats;
  common::Status first_error;

  /// Wall-clock bookkeeping: solving_seconds spans first submit -> last
  /// completion (legalization overlaps later sampling rounds now, so it is
  /// no longer disjoint from sampling_seconds).
  common::Timer timer;
  double first_submit_s = -1.0;
  double last_done_s = 0.0;
};

}  // namespace

common::Result<std::int64_t> resolve_sampling_stride(
    const SamplingSpec& spec, const diffusion::BinarySchedule& schedule) {
  const auto schedule_steps = schedule.steps();
  if (spec.steps < 0 || spec.stride < 0) {
    return common::Status::InvalidArgument(
        "sampling.steps and sampling.stride must be >= 0 (0 = unset), got "
        "steps " +
        std::to_string(spec.steps) + ", stride " +
        std::to_string(spec.stride));
  }
  if (spec.steps > 0 && spec.stride > 0) {
    return common::Status::InvalidArgument(
        "sampling.steps and sampling.stride are mutually exclusive (set at "
        "most one)");
  }
  if (spec.stride > schedule_steps) {
    return common::Status::InvalidArgument(
        "sampling.stride " + std::to_string(spec.stride) +
        " exceeds the model's schedule (" + std::to_string(schedule_steps) +
        " steps)");
  }
  if (spec.steps > schedule_steps) {
    return common::Status::InvalidArgument(
        "sampling.steps " + std::to_string(spec.steps) +
        " exceeds the model's schedule (" + std::to_string(schedule_steps) +
        " steps)");
  }
  if (spec.stride > 0) {
    return spec.stride;
  }
  if (spec.steps > 0) {
    // Coarsest stride whose plan still has >= spec.steps visits: for
    // steps >= 2, ceil(K_eps / s) >= steps holds exactly while
    // s * (steps - 1) < K_eps, and targets above K_eps get stride 1.
    const auto start = schedule.chain_start();
    return spec.steps == 1
               ? schedule_steps
               : std::max<std::int64_t>(1, (start - 1) / (spec.steps - 1));
  }
  return 1;  // Both unset: the full ancestral schedule.
}

std::vector<layout::SquishPattern> assemble_stream_patterns(
    std::vector<StreamedPattern> slots) {
  std::sort(slots.begin(), slots.end(),
            [](const StreamedPattern& a, const StreamedPattern& b) {
              return a.index < b.index;
            });
  std::vector<layout::SquishPattern> patterns;
  for (auto& slot : slots) {
    for (auto& pattern : slot.patterns) {
      patterns.push_back(std::move(pattern));
    }
  }
  return patterns;
}

struct PatternService::Impl {
  static common::Status check_config(const ServiceConfig& cfg) {
    if (cfg.legalize_workers == 0) {
      return common::Status::InvalidArgument(
          "ServiceConfig.legalize_workers is 0: a zero-worker pool can "
          "never run legalization (use a negative value for the hardware "
          "default)");
    }
    if (cfg.compute_threads == 0) {
      return common::Status::InvalidArgument(
          "ServiceConfig.compute_threads is 0: the sampling kernels need at "
          "least one thread (use a negative value to keep the ambient pool "
          "size)");
    }
    return common::Status::Ok();
  }

  static std::int64_t worker_count(const ServiceConfig& cfg) {
    // Invalid (0) configs still construct the pool — with one thread, so
    // the object is well-formed — but config_error gates every request.
    if (cfg.legalize_workers == 0) {
      return 1;
    }
    return cfg.legalize_workers > 0 ? cfg.legalize_workers
                                    : WorkerPool::default_size();
  }

  explicit Impl(ServiceConfig cfg)
      : config(cfg),
        config_error(check_config(cfg)),
        admission(cfg.flow, cfg.max_fused_batch, counters),
        workers(worker_count(cfg)),
        scheduler(cfg.max_fused_batch, counters) {
    if (config_error.ok() && cfg.compute_threads > 0) {
      config_error = common::set_global_compute_threads(cfg.compute_threads);
    }
    rule_sets["normal"] = drc::standard_rules();
    rule_sets["space"] = drc::larger_space_rules();
    rule_sets["area"] = drc::smaller_area_rules();
    // Shards are per-model: tear one down the moment its model leaves the
    // registry (in-flight jobs drain first), and never spawn one for a
    // name the registry no longer holds (closes the submit/unregister
    // race — see BatchScheduler::set_spawn_gate).
    registry.set_unregister_hook(
        [this](const std::string& name) { scheduler.remove_shard(name); });
    scheduler.set_spawn_gate(
        [this](const std::string& name) { return registry.contains(name); });
  }

  ~Impl() {
    registry.set_unregister_hook(nullptr);
    // Stop the shards before `workers` is destroyed (member order below
    // already guarantees it; shutting down explicitly keeps that
    // dependency visible).
    scheduler.shutdown();
  }

  /// Records every non-OK status answered to a caller (the rejects-by-code
  /// counters), passing it through unchanged.
  common::Status reject(common::Status status) {
    if (!status.ok()) {
      counters.rejects_by_code[static_cast<std::size_t>(status.code())].add();
    }
    return status;
  }

  common::Result<std::vector<geometry::BinaryGrid>> run_sampling(
      std::shared_ptr<const ModelArtifacts> artifacts,
      const SampleTopologiesRequest& request, GenerateStats& stats);
  void legalize_slot(const std::shared_ptr<StreamExec>& exec,
                     const geometry::BinaryGrid& topology, std::int64_t index);
  void submit_slots(const std::shared_ptr<StreamExec>& exec,
                    const SampleJob& job, std::int64_t begin,
                    std::int64_t end);
  /// Blocks until every submitted slot drained, then returns the request's
  /// stats (topologies_requested += requested, solving_seconds from the
  /// first-submit..last-done window) — or first_error if the fan-out or a
  /// delivery failed. Shared tail of run_generate and legalize_topologies.
  common::Result<GenerateStats> drain_exec(StreamExec& exec,
                                           std::int64_t requested);
  /// Exactly one of `callback` (push streaming) / `collect` (collect-all,
  /// slots moved in) may be non-null; both null runs legalization with no
  /// deliveries. `abandoned` (pull streams) cancels the sampling job when
  /// it reads true — the submitter keeps it alive past return.
  common::Result<GenerateStats> run_generate(
      PatternService& service, const GenerateRequest& request,
      const StreamCallback* callback, std::vector<StreamedPattern>* collect,
      const std::atomic<bool>* abandoned = nullptr);

  ServiceConfig config;
  /// Non-OK when the config was rejected (e.g. a zero-sized pool): every
  /// request returns this instead of executing.
  common::Status config_error;
  ModelRegistry registry;

  mutable std::mutex rules_mutex;
  std::map<std::string, drc::DesignRules> rule_sets;

  common::CounterBlock counters;
  /// Flow control: every request passes admission before its job may
  /// enter the scheduler (declared after `counters`, which it records
  /// into).
  AdmissionController admission;
  /// Declared after `counters` and before `scheduler`: shard threads
  /// submit into `workers`, so the pool must outlive the scheduler (C++
  /// destroys members in reverse order).
  WorkerPool workers;
  BatchScheduler scheduler;
};

// ------------------------------------------------------------- sampling

common::Result<std::vector<geometry::BinaryGrid>>
PatternService::Impl::run_sampling(
    std::shared_ptr<const ModelArtifacts> artifacts,
    const SampleTopologiesRequest& request, GenerateStats& stats) {
  const auto& schedule = *artifacts->schedule;
  const auto stride = resolve_sampling_stride(request.sampling, schedule);
  if (!stride.ok()) {
    return stride.status();
  }
  // Flow control: occupy an admission window slot for the whole life of
  // the job (sampling-only requests cannot degrade — there is no partial
  // result shape to shrink into).
  const auto decision = admission.admit(request.model, request.count,
                                        /*allow_degrade=*/false);
  if (!decision.status.ok()) {
    return decision.status;
  }
  const AdmissionGuard admission_guard{admission, request.model};
  auto job = std::make_shared<SampleJob>();
  job->artifacts = std::move(artifacts);
  job->count = request.count;
  job->seed = request.seed;
  job->stride = *stride;
  job->priority = request.priority;
  if (request.deadline_ms > 0) {
    job->has_deadline = true;
    job->deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(request.deadline_ms);
  }
  job->grids.resize(static_cast<std::size_t>(request.count));
  auto done = job->done.get_future();
  const auto submitted = scheduler.submit(job);
  if (!submitted.ok()) {
    return submitted;
  }
  counters.requests_accepted.add();
  done.wait();
  if (!job->error.ok()) {
    return job->error;
  }
  stats.topologies_admitted = request.count;
  stats.sampling_stride = *stride;
  stats.steps_run = diffusion::plan_length(schedule, *stride);
  stats.net_evals = job->net_evals;
  stats.sampling_seconds += job->sampling_seconds;
  stats.fused_batch_slots =
      std::max(stats.fused_batch_slots, job->fused_batch_slots);
  return std::move(job->grids);
}

// --------------------------------------------- legalization + streaming

/// Pre-filters and legalizes ONE topology, then (under the exec lock)
/// folds the outcome into the request stats and delivers it through the
/// stream callback. Runs on a worker-pool thread.
void PatternService::Impl::legalize_slot(
    const std::shared_ptr<StreamExec>& exec,
    const geometry::BinaryGrid& topology, std::int64_t index) {
  StreamedPattern out;
  out.index = index;
  std::int64_t rounds = 0;
  common::Status error;
  try {
    if (legalize::prefilter_topology(topology) !=
        legalize::PrefilterVerdict::ok) {
      out.prefiltered = true;
    } else {
      const auto& cfg = exec->artifacts->config;
      const auto* library = exec->artifacts->library.empty()
                                ? nullptr
                                : &exec->artifacts->library;
      common::Rng rng(common::derive_seed(
          exec->seed, kLegalizeStream, static_cast<std::uint64_t>(index)));
      if (exec->geometries == 1) {
        auto result =
            legalize::legalize_topology(topology, exec->rules, cfg.tile,
                                        cfg.tile, cfg.solver, rng, library);
        rounds = result.stats.rounds;
        if (result.success) {
          out.patterns.push_back(std::move(result.pattern));
        }
      } else {
        out.patterns = legalize::legalize_topology_many(
            topology, exec->rules, cfg.tile, cfg.tile, cfg.solver,
            exec->geometries, rng, library);
      }
    }
    out.legal = !out.patterns.empty();
  } catch (const std::exception& e) {
    error = common::exception_to_status(e);
  }
  // Deliveries are serialized by delivery_mutex alone; the stats mutex is
  // only held for the bookkeeping so a slow consumer cannot stall the
  // shard thread (which needs `mutex` to fan out the next round).
  const std::lock_guard<std::mutex> delivery_lock(exec->delivery_mutex);
  const auto fail_exec = [&exec](const common::Status& status) {
    const std::lock_guard<std::mutex> lock(exec->mutex);
    if (exec->first_error.ok()) {
      exec->first_error = status;
    }
    exec->failed.store(true, std::memory_order_relaxed);
  };
  bool deliver = false;
  {
    const std::lock_guard<std::mutex> lock(exec->mutex);
    if (!error.ok()) {
      if (exec->first_error.ok()) {
        exec->first_error = error;
      }
      exec->failed.store(true, std::memory_order_relaxed);
    } else {
      if (out.prefiltered) {
        ++exec->stats.prefilter_rejected;
      } else if (!out.legal) {
        ++exec->stats.solver_rejected;
      }
      exec->stats.solver_rounds += rounds;
      // No deliveries once the request is failing (the final status is an
      // error; a partial stream must not keep growing past it).
      deliver = (exec->callback != nullptr || exec->collect != nullptr) &&
                exec->first_error.ok();
    }
  }
  if (deliver) {
    try {
      if (exec->collect != nullptr) {
        exec->collect->push_back(std::move(out));  // Collect-all: move.
      } else {
        (*exec->callback)(out);
        if (exec->consumer_gone()) {
          // The request unwinds as UNAVAILABLE and the scheduler abandons
          // its remaining rounds.
          fail_exec(common::Status::Unavailable(
              "stream abandoned by the consumer"));
        } else {
          // Only true push streams count as stream deliveries; collect-all
          // requests would drown the stream-adoption signal otherwise.
          counters.stream_deliveries.add();
          counters.patterns_delivered.add(
              static_cast<std::int64_t>(out.patterns.size()));
        }
      }
    } catch (...) {
      // A throwing consumer (or a failed collect allocation) fails the
      // request instead of unwinding into the worker pool — no exception
      // crosses the service boundary.
      fail_exec(
          common::Status::Internal("stream delivery threw an exception"));
    }
  }
  {
    // slots_done AFTER the delivery: the issuing thread may destroy the
    // callback the moment slots_done == slots_submitted.
    const std::lock_guard<std::mutex> lock(exec->mutex);
    ++exec->slots_done;
    exec->last_done_s = exec->timer.seconds();
  }
  exec->cv.notify_all();
}

common::Result<GenerateStats> PatternService::Impl::drain_exec(
    StreamExec& exec, std::int64_t requested) {
  std::unique_lock<std::mutex> lock(exec.mutex);
  exec.cv.wait(lock,
               [&] { return exec.slots_done == exec.slots_submitted; });
  if (!exec.first_error.ok()) {
    return exec.first_error;
  }
  GenerateStats stats = exec.stats;
  stats.topologies_requested += requested;
  if (exec.first_submit_s >= 0) {
    stats.solving_seconds += exec.last_done_s - exec.first_submit_s;
  }
  return stats;
}

/// Fans slots [begin, end) of a sampled job out onto the worker pool.
/// Called from the shard thread (streaming path) or the issuing thread
/// (legalize_topologies). Copies each topology so the tasks never touch
/// the job after its future resolves.
void PatternService::Impl::submit_slots(
    const std::shared_ptr<StreamExec>& exec, const SampleJob& job,
    std::int64_t begin, std::int64_t end) {
  {
    const std::lock_guard<std::mutex> lock(exec->mutex);
    if (exec->first_submit_s < 0) {
      exec->first_submit_s = exec->timer.seconds();
    }
    exec->slots_submitted += end - begin;
  }
  std::int64_t submitted = 0;
  try {
    for (std::int64_t i = begin; i < end; ++i) {
      workers.submit(
          [this, exec, topology = job.grids[static_cast<std::size_t>(i)],
           i] { legalize_slot(exec, topology, i); });
      ++submitted;
    }
  } catch (...) {
    // bad_alloc building a task closure: account the unsubmittable slots
    // as done-with-error so the drain wait (slots_done == slots_submitted)
    // still converges and the caller gets a typed INTERNAL instead of a
    // hang or an escaping exception.
    {
      const std::lock_guard<std::mutex> lock(exec->mutex);
      if (exec->first_error.ok()) {
        exec->first_error = common::Status::Internal(
            "could not enqueue legalization for every sampled topology");
      }
      exec->failed.store(true, std::memory_order_relaxed);
      exec->slots_done += (end - begin) - submitted;
      exec->last_done_s = exec->timer.seconds();
    }
    exec->cv.notify_all();
  }
}

// ------------------------------------------------------ request pipeline

namespace {

/// `sampling` may be null (paths without a sampling leg, e.g.
/// legalize_topologies); when set, the spec is validated against the
/// model's schedule length after the registry check.
common::Status validate_common(const PatternService& service,
                               const ServiceConfig& config,
                               const ModelRegistry& registry,
                               const std::string& model, std::int64_t count,
                               std::int64_t geometries,
                               const std::string& rule_set,
                               std::int64_t deadline_ms,
                               const SamplingSpec* sampling) {
  if (model.empty()) {
    return common::Status::InvalidArgument("request names no model");
  }
  if (count < 1) {
    return common::Status::InvalidArgument("count must be >= 1, got " +
                                           std::to_string(count));
  }
  if (deadline_ms < 0) {
    return common::Status::InvalidArgument(
        "deadline_ms must be >= 0 (0 = no deadline), got " +
        std::to_string(deadline_ms));
  }
  if (count > config.max_count) {
    return common::Status::InvalidArgument(
        "count " + std::to_string(count) + " exceeds max_count " +
        std::to_string(config.max_count));
  }
  if (geometries < 1) {
    return common::Status::InvalidArgument(
        "geometries_per_topology must be >= 1, got " +
        std::to_string(geometries));
  }
  if (geometries > config.max_geometries) {
    return common::Status::InvalidArgument(
        "geometries_per_topology " + std::to_string(geometries) +
        " exceeds max_geometries " + std::to_string(config.max_geometries));
  }
  if (!registry.contains(model)) {
    return common::Status::NotFound("model '" + model +
                                    "' is not registered");
  }
  if (sampling != nullptr) {
    const auto artifacts = registry.lookup(model);
    if (!artifacts.ok()) {
      return artifacts.status();  // Raced an unregister.
    }
    const auto stride =
        resolve_sampling_stride(*sampling, *(*artifacts)->schedule);
    if (!stride.ok()) {
      return stride.status();
    }
  }
  if (!rule_set.empty()) {
    const auto rules = service.rule_set(rule_set);
    if (!rules.ok()) {
      return rules.status();
    }
  }
  return common::Status::Ok();
}

}  // namespace

/// The unified generation path: validate -> enqueue a sampling job on the
/// model's shard -> as each fused round completes, fan the finished slots
/// out to legalization -> deliver each slot through `callback` the moment
/// it clears. generate() layers collect-all on top; generate_stream
/// passes the caller's callback straight through.
common::Result<GenerateStats> PatternService::Impl::run_generate(
    PatternService& service, const GenerateRequest& request,
    const StreamCallback* callback, std::vector<StreamedPattern>* collect,
    const std::atomic<bool>* abandoned) {
  if (!config_error.ok()) {
    return reject(config_error);
  }
  const auto valid = validate_common(
      service, config, registry, request.model, request.count,
      request.geometries_per_topology, request.rule_set, request.deadline_ms,
      &request.sampling);
  if (!valid.ok()) {
    return reject(valid);
  }
  auto artifacts = registry.lookup(request.model);
  if (!artifacts.ok()) {
    return reject(artifacts.status());  // Raced an unregister.
  }
  drc::DesignRules rules = (*artifacts)->config.rules;
  if (!request.rule_set.empty()) {
    auto named = service.rule_set(request.rule_set);
    if (!named.ok()) {
      return reject(named.status());
    }
    rules = std::move(named).value();
  }

  const auto& schedule = *(*artifacts)->schedule;
  const auto stride = resolve_sampling_stride(request.sampling, schedule);
  if (!stride.ok()) {
    return reject(stride.status());  // Raced a model swap.
  }

  // Flow control: a valid request may still be shed (typed, with a retry
  // hint) or admitted with a degraded count. The window slot is held until
  // this frame returns — i.e. until the job has fully left the system.
  const auto decision = admission.admit(request.model, request.count,
                                        request.allow_degrade);
  if (!decision.status.ok()) {
    return reject(decision.status);
  }
  const AdmissionGuard admission_guard{admission, request.model};
  const std::int64_t admitted_count = decision.admitted_count;

  auto exec = std::make_shared<StreamExec>();
  exec->artifacts = *artifacts;
  exec->rules = std::move(rules);
  exec->geometries = request.geometries_per_topology;
  exec->seed = request.seed;
  exec->callback = callback;
  exec->collect = collect;
  exec->abandoned = abandoned;

  auto job = std::make_shared<SampleJob>();
  job->artifacts = *artifacts;
  job->count = admitted_count;
  job->seed = request.seed;
  job->stride = *stride;
  job->priority = request.priority;
  if (request.deadline_ms > 0) {
    job->has_deadline = true;
    job->deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(request.deadline_ms);
  }
  job->grids.resize(static_cast<std::size_t>(admitted_count));
  // Once the request fails downstream (legalization error, throwing
  // consumer) or the pull-stream consumer abandons its handle, remaining
  // sampling rounds are wasted work: let the shard abandon them. The
  // closure's captured exec shared_ptr (and the submitter-owned
  // `abandoned` flag it points at) outlive the job's future.
  job->cancelled = [exec] {
    return exec->failed.load(std::memory_order_relaxed) ||
           exec->consumer_gone();
  };
  // The hook fires on the shard thread strictly before the job's future
  // resolves, so slots_submitted is final once `done` is ready. The raw
  // job pointer stays valid: this frame owns the shared_ptr until return.
  job->on_slots_sampled = [this, exec, raw = job.get()](std::int64_t begin,
                                                        std::int64_t end) {
    submit_slots(exec, *raw, begin, end);
  };

  auto done = job->done.get_future();
  const auto submitted = scheduler.submit(job);
  if (!submitted.ok()) {
    return reject(submitted);
  }
  // Accepted = admitted for execution (a shard holds the job now); a
  // rejected submit above is counted only in rejects_by_code.
  counters.requests_accepted.add();
  done.wait();

  // Drain the legalization fan-out (slots submitted before a sampling
  // error still run) before touching the final stats. first_error (from
  // drain_exec) outranks job->error: when the scheduler abandoned the job
  // BECAUSE this request failed downstream, the downstream failure is the
  // answer, not the cancellation's UNAVAILABLE.
  auto drained = drain_exec(*exec, request.count);
  if (!drained.ok()) {
    return reject(drained.status());
  }
  if (!job->error.ok()) {
    return reject(job->error);
  }
  GenerateStats stats = std::move(drained).value();
  stats.topologies_admitted = admitted_count;
  stats.degraded = decision.degraded;
  stats.sampling_stride = *stride;
  stats.steps_run = diffusion::plan_length(schedule, *stride);
  stats.net_evals = job->net_evals;
  stats.sampling_seconds += job->sampling_seconds;
  stats.fused_batch_slots =
      std::max(stats.fused_batch_slots, job->fused_batch_slots);
  counters.requests_completed.add();
  return stats;
}

// ------------------------------------------------------------ public API

PatternService::PatternService(ServiceConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

PatternService::~PatternService() = default;

ModelRegistry& PatternService::models() { return impl_->registry; }

const ServiceConfig& PatternService::config() const { return impl_->config; }

common::ServiceCounters PatternService::counters() const {
  auto snap = common::snapshot(impl_->counters);
  const auto capacity =
      snap.rounds_executed *
      std::max<std::int64_t>(1, impl_->config.max_fused_batch);
  if (capacity > 0) {
    snap.fused_fill_ratio = static_cast<double>(snap.fused_slots_total) /
                            static_cast<double>(capacity);
  }
  // Compute-backend identity rides along with every snapshot so --stats
  // (and any scraper) can attribute throughput to the dispatch in effect.
  snap.kernel_backend = tensor::kernel_backend_name();
  snap.compute_pool = common::compute_pool_summary();
  // Inference memory-plan counters are process-wide (the arena lives in
  // the tensor layer, the embedding cache in each model), same as the
  // backend identity above.
  const auto arena = tensor::arena_stats();
  snap.arena_bytes_reserved = arena.bytes_reserved;
  snap.plan_cache_hits = arena.plan_cache_hits;
  snap.plan_cache_misses = arena.plan_cache_misses;
  snap.embedding_cache_hits = unet::time_embedding_cache_hits();
  return snap;
}

common::Status PatternService::register_rule_set(
    const std::string& name, const drc::DesignRules& rules) {
  const auto valid = common::validate_resource_name(name, "register_rule_set");
  if (!valid.ok()) {
    return impl_->reject(valid);
  }
  const std::lock_guard<std::mutex> lock(impl_->rules_mutex);
  impl_->rule_sets[name] = rules;
  return common::Status::Ok();
}

common::Result<drc::DesignRules> PatternService::rule_set(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(impl_->rules_mutex);
  const auto it = impl_->rule_sets.find(name);
  if (it == impl_->rule_sets.end()) {
    return common::Status::NotFound("rule set '" + name +
                                    "' is not registered");
  }
  return it->second;
}

std::vector<std::string> PatternService::rule_set_names() const {
  const std::lock_guard<std::mutex> lock(impl_->rules_mutex);
  std::vector<std::string> out;
  out.reserve(impl_->rule_sets.size());
  for (const auto& [name, rules] : impl_->rule_sets) {
    out.push_back(name);
  }
  return out;
}

common::Status PatternService::validate(
    const GenerateRequest& request) const {
  if (!impl_->config_error.ok()) {
    return impl_->config_error;
  }
  return validate_common(*this, impl_->config, impl_->registry, request.model,
                         request.count, request.geometries_per_topology,
                         request.rule_set, request.deadline_ms,
                         &request.sampling);
}

common::Result<GenerateResult> PatternService::generate(
    const GenerateRequest& request) {
  // Collect-all wrapper over the streaming path: slots are moved into the
  // buffer as they clear, then ordered by topology index so a given seed
  // reproduces an identical vector regardless of delivery order.
  std::vector<StreamedPattern> slots;
  auto stats =
      impl_->run_generate(*this, request, /*callback=*/nullptr, &slots);
  if (!stats.ok()) {
    return stats.status();
  }
  return assemble_result(std::move(stats).value(), std::move(slots));
}

common::Result<GenerateStats> PatternService::generate_stream(
    const GenerateRequest& request, const StreamCallback& callback) {
  return impl_->run_generate(*this, request, &callback,
                             /*collect=*/nullptr);
}

// ------------------------------------------------------- pull streaming

struct StreamHandle::State {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<StreamedPattern> items;
  /// Bounded delivery buffer (FlowControlConfig::stream_buffer_limit):
  /// a delivery that would grow `items` past this pauses the producing
  /// worker until next() drains. <= 0 = unbounded.
  std::int64_t buffer_limit = 0;
  /// Set (under `mutex`) when the handle is destroyed mid-stream; read
  /// lock-free by the scheduler's cancel predicate and by paused
  /// producers, so the abandoned request unwinds instead of completing.
  std::atomic<bool> abandoned{false};
  bool done = false;
  common::Status status;
  GenerateStats stats;
  common::CounterBlock* counters = nullptr;
  std::thread driver;

  /// Shared tail of the destructor and move-assignment: flags an
  /// in-flight stream as abandoned (cancelling its sampling job and
  /// unblocking any paused producer), then joins the driver.
  void abandon_and_join() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!done) {
        abandoned.store(true, std::memory_order_relaxed);
        if (counters != nullptr) {
          counters->streams_abandoned.add();
        }
      }
    }
    cv.notify_all();
    if (driver.joinable()) {
      driver.join();
    }
  }
};

StreamHandle::StreamHandle(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

StreamHandle::StreamHandle(StreamHandle&&) noexcept = default;

StreamHandle& StreamHandle::operator=(StreamHandle&& other) noexcept {
  if (this != &other) {
    // Like the destructor: a still-running stream is cancelled and its
    // driver joined before its State is released, or ~State would destroy
    // a joinable thread.
    if (state_ != nullptr) {
      state_->abandon_and_join();
    }
    state_ = std::move(other.state_);
  }
  return *this;
}

StreamHandle::~StreamHandle() {
  if (state_ != nullptr) {
    state_->abandon_and_join();
  }
}

std::optional<StreamedPattern> StreamHandle::next() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock,
                  [&] { return state_->done || !state_->items.empty(); });
  if (state_->items.empty()) {
    return std::nullopt;
  }
  StreamedPattern out = std::move(state_->items.front());
  state_->items.pop_front();
  lock.unlock();
  // Wake a producer paused at the buffer's high-water mark: the consumer
  // just opened a slot.
  state_->cv.notify_all();
  return out;
}

common::Result<GenerateStats> StreamHandle::finish() {
  {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (!state_->status.ok()) {
      return state_->status;
    }
  }
  if (state_->driver.joinable()) {
    state_->driver.join();
  }
  return state_->stats;
}

StreamHandle PatternService::generate_stream(const GenerateRequest& request) {
  auto state = std::make_shared<StreamHandle::State>();
  state->buffer_limit = impl_->config.flow.stream_buffer_limit;
  state->counters = &impl_->counters;
  state->driver = std::thread([this, request, state] {
    const StreamCallback deliver = [this,
                                    &state](const StreamedPattern& pattern) {
      std::unique_lock<std::mutex> lock(state->mutex);
      if (state->buffer_limit > 0 &&
          static_cast<std::int64_t>(state->items.size()) >=
              state->buffer_limit &&
          !state->abandoned.load(std::memory_order_relaxed)) {
        // High-water mark: pause this delivery (and with it the
        // legalization fan-out — deliveries are serialized, so every
        // worker queues up behind this one) until the consumer drains
        // below the bound or abandons the handle.
        impl_->counters.stream_pauses.add();
        state->cv.wait(lock, [&] {
          return state->abandoned.load(std::memory_order_relaxed) ||
                 static_cast<std::int64_t>(state->items.size()) <
                     state->buffer_limit;
        });
      }
      if (state->abandoned.load(std::memory_order_relaxed)) {
        return;  // legalize_slot reads the same flag via StreamExec.
      }
      state->items.push_back(pattern);
      lock.unlock();
      state->cv.notify_all();
    };
    auto result = impl_->run_generate(*this, request, &deliver,
                                      /*collect=*/nullptr,
                                      &state->abandoned);
    {
      const std::lock_guard<std::mutex> lock(state->mutex);
      if (result.ok()) {
        state->stats = std::move(result).value();
      } else {
        state->status = result.status();
      }
      state->done = true;
    }
    state->cv.notify_all();
  });
  return StreamHandle(std::move(state));
}

// ----------------------------------------------------- other entry points

common::Result<SampleTopologiesResult> PatternService::sample_topologies(
    const SampleTopologiesRequest& request) {
  if (!impl_->config_error.ok()) {
    return impl_->reject(impl_->config_error);
  }
  const auto valid = validate_common(
      *this, impl_->config, impl_->registry, request.model, request.count,
      /*geometries=*/1, /*rule_set=*/"", request.deadline_ms,
      &request.sampling);
  if (!valid.ok()) {
    return impl_->reject(valid);
  }
  auto artifacts = impl_->registry.lookup(request.model);
  if (!artifacts.ok()) {
    return impl_->reject(artifacts.status());
  }
  SampleTopologiesResult result;
  // run_sampling runs admission and records acceptance once its job is
  // admitted to a shard.
  auto grids = impl_->run_sampling(*artifacts, request, result.stats);
  if (!grids.ok()) {
    return impl_->reject(grids.status());
  }
  result.topologies = std::move(grids).value();
  result.stats.topologies_requested = request.count;
  impl_->counters.requests_completed.add();
  return result;
}

common::Result<GenerateResult> PatternService::legalize_topologies(
    const LegalizeTopologiesRequest& request) {
  if (!impl_->config_error.ok()) {
    return impl_->reject(impl_->config_error);
  }
  if (request.topologies.empty()) {
    return impl_->reject(common::Status::InvalidArgument(
        "legalize_topologies: no topologies supplied"));
  }
  for (const auto& t : request.topologies) {
    if (t.empty()) {
      return impl_->reject(common::Status::InvalidArgument(
          "legalize_topologies: empty topology grid"));
    }
  }
  const auto valid = validate_common(
      *this, impl_->config, impl_->registry, request.model,
      static_cast<std::int64_t>(request.topologies.size()),
      request.geometries_per_topology, request.rule_set, /*deadline_ms=*/0,
      /*sampling=*/nullptr);
  if (!valid.ok()) {
    return impl_->reject(valid);
  }
  auto artifacts = impl_->registry.lookup(request.model);
  if (!artifacts.ok()) {
    return impl_->reject(artifacts.status());
  }
  drc::DesignRules rules = (*artifacts)->config.rules;
  if (!request.rule_set.empty()) {
    auto named = rule_set(request.rule_set);
    if (!named.ok()) {
      return impl_->reject(named.status());
    }
    rules = std::move(named).value();
  }
  impl_->counters.requests_accepted.add();

  const auto n = static_cast<std::int64_t>(request.topologies.size());
  std::vector<StreamedPattern> slots;
  auto exec = std::make_shared<StreamExec>();
  exec->artifacts = *artifacts;
  exec->rules = std::move(rules);
  exec->geometries = request.geometries_per_topology;
  exec->seed = request.seed;
  exec->collect = &slots;
  // Reuse the streaming fan-out with a pre-sampled "job": caller-supplied
  // topologies stand in for sampled grids.
  SampleJob job;
  job.grids = request.topologies;
  impl_->submit_slots(exec, job, 0, n);

  auto drained = impl_->drain_exec(*exec, n);
  if (!drained.ok()) {
    return impl_->reject(drained.status());
  }
  impl_->counters.requests_completed.add();
  GenerateStats stats = std::move(drained).value();
  stats.topologies_admitted = n;  // No scheduler leg, nothing to degrade.
  return assemble_result(stats, std::move(slots));
}

}  // namespace diffpattern::service
