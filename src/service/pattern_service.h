// PatternService — the service-oriented entry point for pattern generation.
//
// The service owns trained model artifacts (ModelRegistry), a named rule-set
// table, a sharded sampling scheduler (one batcher shard per registered
// model), and a legalization worker pool. Callers issue typed requests from
// any thread:
//
//   PatternService service;
//   service.models().register_model("prod", config, trained.registry(), lib);
//   auto result = service.generate({.model = "prod", .count = 64, .seed = 7});
//   if (!result.ok()) { ... result.status() ... }
//
// Execution model:
//   * Each registered model gets its own batcher shard (spawned lazily on
//     first request, joined at shutdown): reverse diffusion for
//     concurrently queued requests of that model is fused into one batch
//     per denoising round. Shards run independently — heavy traffic on one
//     model never head-of-line blocks another — while a shared admission
//     budget caps the fused slots in flight across ALL shards at
//     max_fused_batch (bounding peak activation memory).
//   * Pre-filter + white-box legalization fan out per-topology onto the
//     worker pool as soon as each slot's sampling round completes. One
//     path serves both delivery shapes: generate_stream(request, callback)
//     pushes every pattern the moment its topology clears legalization,
//     and generate() is a thin collect-all wrapper over it. A request that
//     fails downstream (a throwing callback, a legalization fault) cancels
//     its remaining sampling rounds and releases its admission slot.
//   * Every request stage draws from RNG streams derived from the request
//     seed (common::derive_seed), so a given (model, seed) reproduces
//     byte-identical patterns regardless of concurrency, shard count,
//     batch fusion, or worker scheduling.
//   * Service-level counters (queue depth, rounds, shard occupancy, fill
//     ratio, deliveries, rejects by code) are exported via counters().
//   * Flow control: every request passes admission (bounded per-shard
//     windows) before it may queue. Under overload the service sheds
//     (UNAVAILABLE / RESOURCE_EXHAUSTED with retry-after hints) or
//     degrades (count shrunk, when the request allows it) instead of
//     queueing unboundedly; requests carry a priority and an optional
//     deadline (DEADLINE_EXCEEDED once it expires). None of it is visible
//     in the bytes of what does run.
//
// No exception crosses this API: all fallible paths return Status / a
// Result<T> with a typed StatusCode.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "drc/rules.h"
#include "service/admission.h"
#include "service/model_registry.h"
#include "service/request.h"

namespace diffpattern::service {

struct ServiceConfig {
  /// Threads in the legalization worker pool. Negative = auto (hardware
  /// concurrency, falling back to 1 when the runtime reports 0 cores). A
  /// value of 0 is rejected: construction succeeds, but every request
  /// answers INVALID_ARGUMENT — a zero-worker pool could never drain its
  /// queue, and failing typed is the service contract.
  std::int64_t legalize_workers = 4;
  /// Size of the process-wide tensor compute pool that the U-Net kernels
  /// (reverse-diffusion hot path) fan out over. Negative = leave the pool
  /// at its ambient size (DIFFPATTERN_THREADS env, else hardware
  /// concurrency); positive values resize it at construction. 0 is
  /// rejected like legalize_workers. Note the pool is shared by every
  /// service in the process — the last explicit sizing wins.
  std::int64_t compute_threads = -1;
  /// Global admission budget: upper bound on sampling slots fused into
  /// reverse-diffusion batches across ALL model shards at once (bounds
  /// peak activation memory; larger requests run in chunks). Values < 1
  /// are rejected like legalize_workers == 0.
  std::int64_t max_fused_batch = 64;
  /// Per-request topology cap; larger counts are INVALID_ARGUMENT.
  std::int64_t max_count = 4096;
  /// Per-request geometries-per-topology cap.
  std::int64_t max_geometries = 256;
  /// Flow-control policy: per-shard admission windows, load-shedding
  /// thresholds, retry hints and degraded mode (see FlowControlConfig).
  FlowControlConfig flow;
};

class PatternService {
 public:
  explicit PatternService(ServiceConfig config = ServiceConfig{});
  ~PatternService();
  PatternService(const PatternService&) = delete;
  PatternService& operator=(const PatternService&) = delete;

  ModelRegistry& models();
  const ServiceConfig& config() const;

  /// Snapshot of the service-level counters (queue depth, shard occupancy,
  /// rounds, fused fill ratio, stream deliveries, rejects by StatusCode).
  common::ServiceCounters counters() const;

  /// Named rule decks; "normal", "space", and "area" (the paper's Table I
  /// rows) are pre-registered. Re-registering a name replaces it (hot
  /// reload); in-flight requests keep the deck they resolved.
  common::Status register_rule_set(const std::string& name,
                                   const drc::DesignRules& rules);
  common::Result<drc::DesignRules> rule_set(const std::string& name) const;
  std::vector<std::string> rule_set_names() const;

  /// Checks a request without executing it, through the same resolve step
  /// every entry point runs first: INVALID_ARGUMENT for a rejected config
  /// or bad fields, NOT_FOUND for an unregistered model or rule set. Not
  /// counted in rejects_by_code.
  common::Status validate(const GenerateRequest& request) const;

  /// Full generation (sample -> pre-filter -> legalize). Blocks until the
  /// request completes; thread-safe, and concurrent calls for the same
  /// model batch together on its shard. Collect-all wrapper over the
  /// streaming path.
  common::Result<GenerateResult> generate(const GenerateRequest& request);

  /// Push streaming: runs the same pipeline as generate() but invokes
  /// `callback` for every topology slot the moment it clears (or is
  /// rejected by) legalization — legalization of early sampling rounds
  /// overlaps later rounds' sampling. Calls are serialized; arrival order
  /// may vary, content and indices may not. Blocks until the request
  /// completes and returns the final stats.
  common::Result<GenerateStats> generate_stream(
      const GenerateRequest& request, const StreamCallback& callback);

  /// Topology sampling only.
  common::Result<SampleTopologiesResult> sample_topologies(
      const SampleTopologiesRequest& request);

  /// Legalization of caller-supplied topologies.
  common::Result<GenerateResult> legalize_topologies(
      const LegalizeTopologiesRequest& request);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace diffpattern::service
