// Observability counters. Every counter set in the project follows one
// pattern: its members are declared once, then listed once, in output
// order, by
//   template <class F, class... S> static void fields(F&& f, S&... s)
// which calls f("name", s.name...) per member. Walking that list is the
// only other place a field is spelled: snapshot() copies a live set into
// its plain twin, CounterWriter prints one as JSON or text.
//
// A set recorded from many threads is a template over its cells:
// PlainCells gives the snapshot callers read, LiveCells the block threads
// record into (relaxed atomics: counters order nothing, they only have to
// be torn-read-free). Snapshot<T> members are filled in by the owner at
// snapshot time and do not exist in the live block. Sets guarded by their
// owner's mutex are plain structs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>

#include "common/status.h"

namespace diffpattern::common {

class LiveCounter {
 public:
  /// Adds `delta` (negative for a gauge moving down); returns the new
  /// value.
  std::int64_t add(std::int64_t delta = 1) {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  /// Lifts the counter to at least `candidate` (peaks and maxima).
  void raise_to(std::int64_t candidate) {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !value_.compare_exchange_weak(seen, candidate,
                                         std::memory_order_relaxed)) {
    }
  }
  std::int64_t load() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A snapshot-only member's place in a live block.
struct Absent {};

struct PlainCells {
  using Counter = std::int64_t;
  template <class T>
  using Snapshot = T;
};

struct LiveCells {
  using Counter = LiveCounter;
  template <class T>
  using Snapshot = Absent;
};

/// Counts indexed by StatusCode value.
template <class Counter>
using CodeCounts = std::array<Counter, kStatusCodeCount>;

inline std::int64_t count_total(const CodeCounts<std::int64_t>& counts) {
  return std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
}

/// Prints a plain set's field list as single-line JSON ({"name":value,...},
/// the --stats-json format) or as text (one "  name: value" line per
/// field, the --stats format). One overload per value type a set holds.
class CounterWriter {
 public:
  explicit CounterWriter(bool json) : json_(json) {}
  void operator()(const char* name, std::int64_t value);
  void operator()(const char* name, double value);
  /// Strings are backend/pool identifiers: nothing to escape.
  void operator()(const char* name, const std::string& value);
  /// The total in text; in both, each non-zero code by its canonical name.
  void operator()(const char* name, const CodeCounts<std::int64_t>& counts);
  std::string finish();

 private:
  std::ostream& key(const char* name);

  std::ostringstream out_;
  bool json_;
  bool first_ = true;
};

template <class Set>
std::string counters_json(const Set& set) {
  CounterWriter writer(/*json=*/true);
  Set::fields(writer, set);
  return writer.finish();
}

/// Copies one live field into its plain twin (the visitor snapshot walks).
struct CounterLoader {
  void operator()(const char*, std::int64_t& to,
                  const LiveCounter& from) const {
    to = from.load();
  }
  void operator()(const char*, CodeCounts<std::int64_t>& to,
                  const CodeCounts<LiveCounter>& from) const {
    for (std::size_t i = 0; i < to.size(); ++i) {
      to[i] = from[i].load();
    }
  }
  void operator()(const char*, const auto&, Absent) const {}
};

/// Reads a live set one counter at a time (consistent per counter, not
/// globally — fine for observability). Snapshot-only fields stay default.
template <template <class> class Set>
Set<PlainCells> snapshot(const Set<LiveCells>& live) {
  Set<PlainCells> out;
  Set<PlainCells>::fields(CounterLoader{}, out, live);
  return out;
}

/// A PatternService's counters. Gauges move both ways; everything else is
/// a monotone total since service construction.
template <class Cells>
struct ServiceCountersT {
  using Counter = typename Cells::Counter;
  template <class T>
  using Snapshot = typename Cells::template Snapshot<T>;

  // -- compute backend, process-wide --
  /// Active SIMD kernel backend ("scalar" / "avx2").
  Snapshot<std::string> kernel_backend;
  /// Compute-pool size plus how it was chosen (compute_pool_summary()).
  Snapshot<std::string> compute_pool;

  // -- gauges and their high-water marks --
  Counter queue_depth{};  ///< Sampling jobs queued across shards.
  Counter queue_depth_peak{};
  /// Admitted requests in flight (queued OR sampling) across all shards,
  /// which flow control bounds at max_queue_depth per shard.
  Counter admission_pending{};
  /// Stays <= shards * max_queue_depth under overload.
  Counter admission_pending_peak{};
  Counter shards_active{};  ///< Live per-model batcher shards.

  // -- sampling --
  Counter shards_spawned{};   ///< Shards ever created (lazy spawn).
  Counter rounds_executed{};  ///< Fused sampling rounds run.
  Counter denoise_steps{};    ///< Reverse-diffusion steps, all rounds.
  /// U-Net slot-evaluations executed (sum of each step's active batch).
  Counter net_evals{};
  /// Slot-steps strided schedules skipped: sum over slots of
  /// (K - steps_run). With the evaluations it sums to slots * K.
  Counter steps_skipped{};
  Counter fused_slots_total{};  ///< Slots summed over all rounds.
  Counter max_round_slots{};    ///< Largest single fused round.
  /// Slots over the slot capacity of the executed rounds (rounds *
  /// max_fused_batch); 0 before any round. Derived at snapshot time.
  Snapshot<double> fused_fill_ratio{};
  Counter requests_accepted{};   ///< Requests admitted for execution.
  Counter requests_completed{};  ///< Requests finished OK.
  Counter stream_deliveries{};   ///< Per-slot push-stream deliveries.
  Counter patterns_delivered{};  ///< Legal patterns across deliveries.

  // -- flow control --
  /// Requests turned away by admission (soft UNAVAILABLE sheds and hard
  /// RESOURCE_EXHAUSTED rejections alike).
  Counter requests_shed{};
  Counter requests_degraded{};  ///< Admitted with a shrunk count.
  /// Jobs dropped because their deadline expired (queued or
  /// mid-sampling).
  Counter deadlines_expired{};
  /// Jobs abandoned at round formation because their request already
  /// failed downstream (a legalization fault or a throwing callback).
  Counter jobs_cancelled{};

  // -- inference memory plan, process-wide --
  /// Bytes parked in activation-plan freelists (gauge).
  Snapshot<std::int64_t> arena_bytes_reserved{};
  /// Rounds that leased an already-recorded activation plan.
  Snapshot<std::int64_t> plan_cache_hits{};
  /// Rounds that recorded a fresh plan (new batch shape, re-record after
  /// eviction, or a lease conflict).
  Snapshot<std::int64_t> plan_cache_misses{};

  /// Requests answered with a non-OK status.
  CodeCounts<Counter> rejects_by_code{};

  template <class F, class... S>
  static void fields(F&& f, S&... s) {
    f("kernel_backend", s.kernel_backend...);
    f("compute_pool", s.compute_pool...);
    f("queue_depth", s.queue_depth...);
    f("queue_depth_peak", s.queue_depth_peak...);
    f("admission_pending", s.admission_pending...);
    f("admission_pending_peak", s.admission_pending_peak...);
    f("shards_active", s.shards_active...);
    f("shards_spawned", s.shards_spawned...);
    f("rounds_executed", s.rounds_executed...);
    f("denoise_steps", s.denoise_steps...);
    f("net_evals", s.net_evals...);
    f("steps_skipped", s.steps_skipped...);
    f("fused_slots_total", s.fused_slots_total...);
    f("max_round_slots", s.max_round_slots...);
    f("fused_fill_ratio", s.fused_fill_ratio...);
    f("requests_accepted", s.requests_accepted...);
    f("requests_completed", s.requests_completed...);
    f("stream_deliveries", s.stream_deliveries...);
    f("patterns_delivered", s.patterns_delivered...);
    f("requests_shed", s.requests_shed...);
    f("requests_degraded", s.requests_degraded...);
    f("deadlines_expired", s.deadlines_expired...);
    f("jobs_cancelled", s.jobs_cancelled...);
    f("arena_bytes_reserved", s.arena_bytes_reserved...);
    f("plan_cache_hits", s.plan_cache_hits...);
    f("plan_cache_misses", s.plan_cache_misses...);
    f("rejects_by_code", s.rejects_by_code...);
  }

  // -- snapshot (ServiceCounters) only --
  std::int64_t rejects(StatusCode code) const {
    return rejects_by_code[static_cast<std::size_t>(code)];
  }
  std::int64_t total_rejected() const { return count_total(rejects_by_code); }
  std::string to_string() const {
    CounterWriter writer(/*json=*/false);
    fields(writer, *this);
    return "service counters:\n" + writer.finish();
  }
  std::string to_json() const { return counters_json(*this); }
};

/// Plain-value snapshot (PatternService::counters(), the CLI --stats dump,
/// load-shedding logic).
using ServiceCounters = ServiceCountersT<PlainCells>;
/// The live block a PatternService's shards, stream delivery and admission
/// code record into, each from its own thread.
using CounterBlock = ServiceCountersT<LiveCells>;

}  // namespace diffpattern::common
