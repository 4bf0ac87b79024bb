// Flow-control layer: admission control and load shedding for the
// PatternService request lifecycle.
//
// Before PR 4 the service queued every valid request unboundedly: a burst
// beyond sampling capacity grew the shard queues (and every caller's
// latency) without limit. The AdmissionController makes the policy
// explicit. Each model shard gets a bounded admission window counting the
// requests it has admitted but not yet answered (queued OR sampling);
// every request passes through admit() before it may enqueue a sampling
// job, and release() closes the window slot when the request leaves the
// system (any terminal status).
//
// Policy, in escalation order per shard:
//   * depth >= max_queue_depth       -> RESOURCE_EXHAUSTED (hard budget
//     exhaustion; the caller must back off).
//   * depth >= shed_queue_depth      -> degraded admission when the
//     request allows it (count halved, floor 1 topology), otherwise
//     UNAVAILABLE — both are explicit load shedding instead of queueing.
//   * recent fill ratio >= shed_fill_ratio (a sliding window over the
//     rounds since the last check, not the lifetime mean) with half the
//     soft threshold queued -> same soft shedding, earlier: full rounds
//     mean sampling is already at capacity, so a shorter queue is enough
//     evidence of overload.
// Every shedding status carries a structured retry-after hint
// (Status::retry_after_ms) scaled by the observed backlog.
//
// Determinism: admission decides only WHETHER and HOW MANY slots run,
// never how they sample — per-slot RNG streams keep each admitted slot's
// bytes identical to an unloaded run (a degraded request's output is the
// byte-identical prefix of the full request's).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/counters.h"
#include "common/status.h"

namespace diffpattern::service {

/// Knobs for the service's flow-control layer (ServiceConfig::flow; the
/// AdmissionController normalizes out-of-range values at construction).
struct FlowControlConfig {
  /// Hard per-shard bound on admitted-but-unanswered requests; at or
  /// beyond it new requests answer RESOURCE_EXHAUSTED. Clamped to >= 1.
  std::int64_t max_queue_depth = 64;
  /// Soft threshold: at or beyond it new requests are shed (UNAVAILABLE)
  /// or admitted degraded. Clamped into [1, max_queue_depth].
  std::int64_t shed_queue_depth = 48;
  /// Early-shed signal: when the observed fused_fill_ratio reaches this
  /// (rounds are running full, i.e. sampling is at capacity), soft
  /// shedding starts at half of shed_queue_depth. Values outside (0, 1]
  /// disable the signal.
  double shed_fill_ratio = 0.95;
  /// Base retry-after hint attached to shed statuses, scaled up with the
  /// backlog. Clamped to >= 1.
  std::int64_t retry_after_ms = 25;
};

/// Owns the per-shard admission windows and the shedding policy. All
/// methods are thread-safe; `counters` must outlive the controller (the
/// controller exports admission_pending and the shed/degrade totals
/// through it, and reads the live fill ratio from it).
class AdmissionController {
 public:
  struct Decision {
    common::Status status;  ///< OK = admitted (release() is now owed).
    /// Topologies actually admitted: the request's count, shrunk in
    /// degraded mode. 0 when shed.
    std::int64_t admitted_count = 0;
    bool degraded = false;
  };

  /// `max_fused_batch` is the budget the live fill ratio is computed
  /// against (the service passes its configured value).
  AdmissionController(FlowControlConfig config, std::int64_t max_fused_batch,
                      common::CounterBlock& counters);
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admission decision for a request of `count` topologies on `model`'s
  /// shard. On OK the shard's window is occupied until the matching
  /// release(); `allow_degrade` permits a count-shrinking degradation in
  /// the soft band.
  Decision admit(const std::string& model, std::int64_t count,
                 bool allow_degrade);

  /// Returns the window slot taken by an OK admit(). Call exactly once
  /// per admitted request, after its job has left the system (completed,
  /// failed, expired, or cancelled).
  void release(const std::string& model);

  /// Admitted-but-unanswered requests on `model`'s shard.
  std::int64_t pending(const std::string& model) const;

  const FlowControlConfig& config() const { return config_; }

 private:
  std::int64_t retry_hint_ms(std::int64_t depth) const;

  const FlowControlConfig config_;  // Normalized.
  const std::int64_t max_fused_batch_;
  common::CounterBlock& counters_;

  mutable std::mutex mutex_;
  std::map<std::string, std::int64_t> pending_;
  /// Saturation window (under mutex_): the fill ratio of the rounds
  /// executed since the last recomputation — a recent-load signal, not
  /// the lifetime mean.
  std::int64_t window_rounds_ = 0;
  std::int64_t window_slots_ = 0;
  double recent_fill_ = 0.0;
};

}  // namespace diffpattern::service
