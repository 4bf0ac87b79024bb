#include "service/pattern_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
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

  /// Records the request's first error (later ones are dropped) and raises
  /// `failed`. Takes `mutex`.
  void fail(const common::Status& status) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (first_error.ok()) {
      first_error = status;
    }
    failed.store(true, std::memory_order_relaxed);
  }
};

/// A request's model artifacts, rule deck and sampling stride, looked up
/// once by PatternService::Impl::resolve.
struct Resolved {
  std::shared_ptr<const ModelArtifacts> artifacts;
  drc::DesignRules rules;
  std::int64_t stride = 1;  // 1 for requests without a sampling leg.
};

/// SampleJob fill-in shared by both sampling entry points
/// (GenerateRequest and SampleTopologiesRequest carry the same scheduling
/// fields): `count` slots of the resolved model at the resolved stride.
template <class Request>
std::shared_ptr<SampleJob> make_job(const Request& request,
                                    const Resolved& resolved,
                                    std::int64_t count) {
  auto job = std::make_shared<SampleJob>();
  job->artifacts = resolved.artifacts;
  job->count = count;
  job->seed = request.seed;
  job->stride = resolved.stride;
  job->priority = request.priority;
  if (request.deadline_ms > 0) {
    job->has_deadline = true;
    job->deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(request.deadline_ms);
  }
  job->grids.resize(static_cast<std::size_t>(count));
  return job;
}

/// Folds a finished job's sampling stats into the request's stats.
void fold_sampling(const SampleJob& job, GenerateStats& stats) {
  stats.topologies_admitted = job.count;
  stats.sampling_stride = job.stride;
  stats.steps_run =
      diffusion::plan_length(*job.artifacts->schedule, job.stride);
  stats.net_evals = job.net_evals;
  stats.sampling_seconds += job.sampling_seconds;
  stats.fused_batch_slots =
      std::max(stats.fused_batch_slots, job.fused_batch_slots);
}

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

  common::Result<drc::DesignRules> find_rule_set(const std::string& name) const;
  /// The one resolve step behind validate() and every entry point: the
  /// config check, the request-field checks, then the model, the sampling
  /// stride (only when `sampling` is set) and the rule deck (empty name =
  /// the model's default), in that order; the first failure is the answer.
  common::Result<Resolved> resolve(const std::string& model,
                                   std::int64_t count, std::int64_t geometries,
                                   const std::string& rule_set,
                                   std::int64_t deadline_ms,
                                   const SamplingSpec* sampling) const;
  /// Submits `job` to its model's shard and blocks until the job finishes
  /// (job->error then holds the sampling outcome). Non-OK only when no
  /// shard accepted the job.
  common::Status run_job(const std::shared_ptr<SampleJob>& job);
  common::Result<SampleTopologiesResult> run_sampling(
      const SampleTopologiesRequest& request);
  void legalize_slot(const std::shared_ptr<StreamExec>& exec,
                     const geometry::BinaryGrid& topology, std::int64_t index);
  void submit_slots(const std::shared_ptr<StreamExec>& exec,
                    const std::vector<geometry::BinaryGrid>& grids,
                    std::int64_t begin, std::int64_t end);
  /// Blocks until every submitted slot drained, then returns the request's
  /// stats (topologies_requested += requested, solving_seconds from the
  /// first-submit..last-done window) — or first_error if the fan-out or a
  /// delivery failed. Shared tail of run_generate and legalize_topologies.
  common::Result<GenerateStats> drain_exec(StreamExec& exec,
                                           std::int64_t requested);
  /// Exactly one of `callback` (push streaming) / `collect` (collect-all,
  /// slots moved in) may be non-null; both null runs legalization with no
  /// deliveries.
  common::Result<GenerateStats> run_generate(
      const GenerateRequest& request, const StreamCallback* callback,
      std::vector<StreamedPattern>* collect);

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

// ------------------------------------------------------------ resolve

common::Result<drc::DesignRules> PatternService::Impl::find_rule_set(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(rules_mutex);
  const auto it = rule_sets.find(name);
  if (it == rule_sets.end()) {
    return common::Status::NotFound("rule set '" + name +
                                    "' is not registered");
  }
  return it->second;
}

common::Result<Resolved> PatternService::Impl::resolve(
    const std::string& model, std::int64_t count, std::int64_t geometries,
    const std::string& rule_set, std::int64_t deadline_ms,
    const SamplingSpec* sampling) const {
  if (!config_error.ok()) {
    return config_error;
  }
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
  auto artifacts = registry.lookup(model);
  if (!artifacts.ok()) {
    return artifacts.status();
  }
  Resolved out;
  out.artifacts = std::move(artifacts).value();
  if (sampling != nullptr) {
    const auto stride =
        resolve_sampling_stride(*sampling, *out.artifacts->schedule);
    if (!stride.ok()) {
      return stride.status();
    }
    out.stride = *stride;
  }
  if (rule_set.empty()) {
    out.rules = out.artifacts->config.rules;
  } else {
    auto rules = find_rule_set(rule_set);
    if (!rules.ok()) {
      return rules.status();
    }
    out.rules = std::move(rules).value();
  }
  return out;
}

// ------------------------------------------------------------- sampling

common::Status PatternService::Impl::run_job(
    const std::shared_ptr<SampleJob>& job) {
  auto done = job->done.get_future();
  const auto submitted = scheduler.submit(job);
  if (!submitted.ok()) {
    return submitted;
  }
  // Accepted = admitted for execution (a shard holds the job now); a
  // rejected submit is counted only in rejects_by_code.
  counters.requests_accepted.add();
  done.wait();
  return common::Status::Ok();
}

common::Result<SampleTopologiesResult> PatternService::Impl::run_sampling(
    const SampleTopologiesRequest& request) {
  const auto resolved =
      resolve(request.model, request.count, /*geometries=*/1,
              /*rule_set=*/"", request.deadline_ms, &request.sampling);
  if (!resolved.ok()) {
    return reject(resolved.status());
  }
  // Flow control: occupy an admission window slot for the whole life of
  // the job (sampling-only requests cannot degrade — there is no partial
  // result shape to shrink into).
  const auto decision = admission.admit(request.model, request.count,
                                        /*allow_degrade=*/false);
  if (!decision.status.ok()) {
    return reject(decision.status);
  }
  const AdmissionGuard admission_guard{admission, request.model};
  const auto job = make_job(request, *resolved, request.count);
  const auto ran = run_job(job);
  if (!ran.ok()) {
    return reject(ran);
  }
  if (!job->error.ok()) {
    return reject(job->error);
  }
  SampleTopologiesResult result;
  result.topologies = std::move(job->grids);
  result.stats.topologies_requested = request.count;
  fold_sampling(*job, result.stats);
  counters.requests_completed.add();
  return result;
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
  bool deliver = false;
  if (!error.ok()) {
    exec->fail(error);
  } else {
    const std::lock_guard<std::mutex> lock(exec->mutex);
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
  if (deliver) {
    try {
      if (exec->collect != nullptr) {
        exec->collect->push_back(std::move(out));  // Collect-all: move.
      } else {
        (*exec->callback)(out);
        // Only true push streams count as stream deliveries; collect-all
        // requests would drown the stream-adoption signal otherwise.
        counters.stream_deliveries.add();
        counters.patterns_delivered.add(
            static_cast<std::int64_t>(out.patterns.size()));
      }
    } catch (...) {
      // A throwing consumer (or a failed collect allocation) fails the
      // request instead of unwinding into the worker pool — no exception
      // crosses the service boundary.
      exec->fail(
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

/// Fans slots [begin, end) of `grids` out onto the worker pool. Called
/// from the shard thread with a sampled job's grids (streaming path) or
/// from the issuing thread with the caller's topologies
/// (legalize_topologies). Copies each topology into its task, so the tasks
/// never touch `grids` after this returns.
void PatternService::Impl::submit_slots(
    const std::shared_ptr<StreamExec>& exec,
    const std::vector<geometry::BinaryGrid>& grids, std::int64_t begin,
    std::int64_t end) {
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
          [this, exec, topology = grids[static_cast<std::size_t>(i)], i] {
            legalize_slot(exec, topology, i);
          });
      ++submitted;
    }
  } catch (...) {
    // bad_alloc building a task closure: account the unsubmittable slots
    // as done-with-error so the drain wait (slots_done == slots_submitted)
    // still converges and the caller gets a typed INTERNAL instead of a
    // hang or an escaping exception.
    exec->fail(common::Status::Internal(
        "could not enqueue legalization for every sampled topology"));
    {
      const std::lock_guard<std::mutex> lock(exec->mutex);
      exec->slots_done += (end - begin) - submitted;
      exec->last_done_s = exec->timer.seconds();
    }
    exec->cv.notify_all();
  }
}

// ------------------------------------------------------ request pipeline

/// The unified generation path: resolve -> admit -> enqueue a sampling
/// job on the model's shard -> as each fused round completes, fan the
/// finished slots out to legalization -> deliver each slot through
/// `callback` the moment it clears. generate() layers collect-all on top;
/// generate_stream passes the caller's callback straight through.
common::Result<GenerateStats> PatternService::Impl::run_generate(
    const GenerateRequest& request, const StreamCallback* callback,
    std::vector<StreamedPattern>* collect) {
  auto resolved = resolve(request.model, request.count,
                          request.geometries_per_topology, request.rule_set,
                          request.deadline_ms, &request.sampling);
  if (!resolved.ok()) {
    return reject(resolved.status());
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

  auto exec = std::make_shared<StreamExec>();
  exec->artifacts = resolved->artifacts;
  exec->rules = std::move(resolved->rules);
  exec->geometries = request.geometries_per_topology;
  exec->seed = request.seed;
  exec->callback = callback;
  exec->collect = collect;

  const auto job = make_job(request, *resolved, decision.admitted_count);
  // Once the request fails downstream (legalization error, throwing
  // consumer), remaining sampling rounds are wasted work: let the shard
  // abandon them. The closure's captured exec shared_ptr outlives the
  // job's future.
  job->cancelled = [exec] {
    return exec->failed.load(std::memory_order_relaxed);
  };
  // The hook fires on the shard thread strictly before the job's future
  // resolves, so slots_submitted is final once the job is done. The raw
  // job pointer stays valid: this frame owns the shared_ptr until return.
  job->on_slots_sampled = [this, exec, raw = job.get()](std::int64_t begin,
                                                        std::int64_t end) {
    submit_slots(exec, raw->grids, begin, end);
  };
  const auto ran = run_job(job);
  if (!ran.ok()) {
    return reject(ran);
  }

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
  stats.degraded = decision.degraded;
  fold_sampling(*job, stats);
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
  // the tensor layer), same as the backend identity above.
  const auto arena = tensor::arena_stats();
  snap.arena_bytes_reserved = arena.bytes_reserved;
  snap.plan_cache_hits = arena.plan_cache_hits;
  snap.plan_cache_misses = arena.plan_cache_misses;
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
  return impl_->find_rule_set(name);
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
  return impl_
      ->resolve(request.model, request.count, request.geometries_per_topology,
                request.rule_set, request.deadline_ms, &request.sampling)
      .status();
}

common::Result<GenerateResult> PatternService::generate(
    const GenerateRequest& request) {
  // Collect-all wrapper over the streaming path: slots are moved into the
  // buffer as they clear, then ordered by topology index so a given seed
  // reproduces an identical vector regardless of delivery order.
  std::vector<StreamedPattern> slots;
  auto stats = impl_->run_generate(request, /*callback=*/nullptr, &slots);
  if (!stats.ok()) {
    return stats.status();
  }
  return assemble_result(std::move(stats).value(), std::move(slots));
}

common::Result<GenerateStats> PatternService::generate_stream(
    const GenerateRequest& request, const StreamCallback& callback) {
  return impl_->run_generate(request, &callback, /*collect=*/nullptr);
}

common::Result<SampleTopologiesResult> PatternService::sample_topologies(
    const SampleTopologiesRequest& request) {
  return impl_->run_sampling(request);
}

common::Result<GenerateResult> PatternService::legalize_topologies(
    const LegalizeTopologiesRequest& request) {
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
  const auto n = static_cast<std::int64_t>(request.topologies.size());
  auto resolved = impl_->resolve(request.model, n,
                                 request.geometries_per_topology,
                                 request.rule_set, /*deadline_ms=*/0,
                                 /*sampling=*/nullptr);
  if (!resolved.ok()) {
    return impl_->reject(resolved.status());
  }
  // Flow control as for sample_topologies: the window slot is held until
  // every topology has left the worker pool; nothing to degrade into.
  const auto decision = impl_->admission.admit(request.model, n,
                                               /*allow_degrade=*/false);
  if (!decision.status.ok()) {
    return impl_->reject(decision.status);
  }
  const AdmissionGuard admission_guard{impl_->admission, request.model};
  impl_->counters.requests_accepted.add();

  std::vector<StreamedPattern> slots;
  auto exec = std::make_shared<StreamExec>();
  exec->artifacts = resolved->artifacts;
  exec->rules = std::move(resolved->rules);
  exec->geometries = request.geometries_per_topology;
  exec->seed = request.seed;
  exec->collect = &slots;
  // Reuse the streaming fan-out: caller-supplied topologies stand in for
  // sampled grids.
  impl_->submit_slots(exec, request.topologies, 0, n);

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
