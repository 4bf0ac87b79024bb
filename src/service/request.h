// Typed request/response messages for the PatternService API.
//
// Requests are plain value structs (trivially serializable later into an
// RPC surface); every service call answers with Result<...> so invalid
// input comes back as a typed Status instead of an exception or UB.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "diffusion/schedule.h"
#include "geometry/grid.h"
#include "layout/squish.h"

namespace diffpattern::service {

/// Reduced-step sampling knob (DiffPattern-Flex): walk a strided
/// subsequence of the model's reverse-diffusion steps (diffusion::step_plan,
/// which starts at K_eps <= K) instead of all of them, trading a controlled
/// amount of sample quality for a proportional cut in U-Net evaluations.
/// At most one of the two fields may be set:
///   * steps  — target network evaluations; the service derives the
///              coarsest stride whose plan has at least this many visits.
///   * stride — walk K_eps, K_eps - stride, ..., >= 1 directly.
/// 0 means "unset"; both unset selects the full schedule (stride 1).
/// Validation happens at admission: negative values, steps/stride > K, or
/// setting both answer INVALID_ARGUMENT. Output stays a pure function of
/// (model, seed, schedule incl. stride) — fusing with requests of other
/// strides, thread count, and kernel backend never change the bytes.
struct SamplingSpec {
  std::int64_t steps = 0;
  std::int64_t stride = 0;
};

/// Resolves a SamplingSpec against a model's schedule into the effective
/// stride (1 = full schedule). INVALID_ARGUMENT on negative fields, both
/// fields set, or either exceeding K. A `steps` target maps to the coarsest
/// stride whose step plan has >= steps visits; a target above K_eps
/// therefore resolves to stride 1 (K_eps evaluations).
common::Result<std::int64_t> resolve_sampling_stride(
    const SamplingSpec& spec, const diffusion::BinarySchedule& schedule);

/// Full generation: sample `count` topologies from `model`, pre-filter,
/// and legalize under the named rule set (DiffPattern-L when
/// geometries_per_topology > 1).
struct GenerateRequest {
  std::string model;                         ///< Registered model name.
  std::int64_t count = 1;                    ///< Topologies to sample.
  std::int64_t geometries_per_topology = 1;  ///< >1 = DiffPattern-L.
  /// Named rule deck ("normal" | "space" | "area" | registered custom);
  /// empty selects the model's default deck.
  std::string rule_set;
  /// Root of this request's deterministic RNG streams: the same seed yields
  /// byte-identical patterns no matter how many requests run concurrently
  /// or how sampling rounds are batched.
  std::uint64_t seed = 0;
  /// Scheduling class: higher-priority jobs run their sampling rounds
  /// first (FIFO within a priority). Priority reorders WHEN slots sample,
  /// never WHAT they sample — output bytes are priority-invariant.
  std::int32_t priority = 0;
  /// Latency budget in milliseconds from admission; 0 = none. An expired
  /// job is cancelled (DEADLINE_EXCEEDED) before its next sampling round
  /// forms, whether it is still queued or already partially sampled.
  std::int64_t deadline_ms = 0;
  /// Permits degraded admission under overload: instead of shedding, the
  /// service may halve `count` (floor 1 topology). The degraded output
  /// is the byte-identical prefix of the full request's; stats report the
  /// shrink (GenerateStats::degraded).
  bool allow_degrade = false;
  /// Reduced-step sampling schedule; default = full schedule.
  SamplingSpec sampling;
};

/// Topology sampling only (no legalization).
struct SampleTopologiesRequest {
  std::string model;
  std::int64_t count = 1;
  std::uint64_t seed = 0;
  std::int32_t priority = 0;     ///< See GenerateRequest::priority.
  std::int64_t deadline_ms = 0;  ///< See GenerateRequest::deadline_ms.
  SamplingSpec sampling;         ///< See GenerateRequest::sampling.
};

/// Legalize externally produced topologies (baseline assessment flows).
struct LegalizeTopologiesRequest {
  std::string model;  ///< Supplies the tile size, solver, and delta library.
  std::vector<geometry::BinaryGrid> topologies;
  std::int64_t geometries_per_topology = 1;
  std::string rule_set;
  std::uint64_t seed = 0;
};

/// One streaming delivery: the legalization outcome for topology slot
/// `index` of a GenerateRequest, pushed the moment that topology clears
/// (or is rejected by) legalization. Arrival ORDER may vary with worker
/// scheduling, but the delivered set is deterministic: for a given
/// (model, seed), the (index, patterns) pairs are byte-identical to the
/// corresponding generate() output, invariant to shard count, round
/// chunking, and callback timing.
struct StreamedPattern {
  std::int64_t index = 0;      ///< Topology slot in [0, request.count).
  bool legal = false;          ///< True iff `patterns` is non-empty.
  bool prefiltered = false;    ///< Rejected by the pre-filter (Sec. III-D).
  /// DRC-clean patterns for this topology (geometries_per_topology many at
  /// most); empty when the slot was pre-filtered or unsolvable.
  std::vector<layout::SquishPattern> patterns;
};

/// Invoked once per topology slot. Calls are serialized (never concurrent)
/// but may arrive on different worker threads; the callback must not call
/// back into the PatternService. A callback that throws fails the request
/// with INTERNAL (remaining slots are not delivered).
using StreamCallback = std::function<void(const StreamedPattern&)>;

/// Orders streamed deliveries by topology index and flattens their
/// patterns — the collect-all shape of GenerateResult::patterns. Stream
/// consumers (and the CLI) use this to reassemble a vector byte-identical
/// to what generate() would have returned for the same request.
std::vector<layout::SquishPattern> assemble_stream_patterns(
    std::vector<StreamedPattern> slots);

struct GenerateStats {
  std::int64_t topologies_requested = 0;
  /// Topologies actually admitted for execution: == topologies_requested
  /// unless admission degraded the request under overload.
  std::int64_t topologies_admitted = 0;
  /// True when admission shrank the request's count instead of shedding
  /// it (the request set allow_degrade and arrived during overload).
  bool degraded = false;
  std::int64_t prefilter_rejected = 0;
  std::int64_t solver_rejected = 0;
  std::int64_t solver_rounds = 0;
  double sampling_seconds = 0.0;  ///< This request's share of fused rounds.
  double solving_seconds = 0.0;   ///< Wall time of the legalization fan-out.
  /// Largest fused sampling batch that carried this request's slots (== its
  /// own count when the request ran alone).
  std::int64_t fused_batch_slots = 0;
  /// Effective sampling stride this request ran with (1 = full schedule).
  std::int64_t sampling_stride = 1;
  /// Reverse-diffusion steps each topology executed: the length of its
  /// step plan, ceil(K_eps / stride).
  std::int64_t steps_run = 0;
  /// Total U-Net slot-evaluations this request consumed
  /// (= topologies_admitted * steps_run).
  std::int64_t net_evals = 0;
};

struct GenerateResult {
  /// DRC-clean patterns, ordered by topology index (geometries for one
  /// topology stay contiguous), so a given seed reproduces an identical
  /// vector regardless of worker scheduling.
  std::vector<layout::SquishPattern> patterns;
  GenerateStats stats;
};

struct SampleTopologiesResult {
  std::vector<geometry::BinaryGrid> topologies;
  GenerateStats stats;
};

}  // namespace diffpattern::service
