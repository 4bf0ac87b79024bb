// Seeded request plans for the benchmark workloads.
//
// A plan is the complete, fixed list of requests one run issues: the same
// (workload, seed, seconds) always yields the same list, byte for byte, on
// every platform. The generator is a self-contained SplitMix64 stream (no
// std:: distributions, whose outputs are implementation-defined), and
// arrival times are integer microseconds. The measured system never sees
// the seed — only the generated requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dpbench {

enum class Workload { kServeFused, kRoutedStream };

/// Parses "serve_fused" | "routed_stream".
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload workload);

/// One planned request. Which fields matter depends on the workload.
struct PlannedRequest {
  std::int64_t index = 0;
  std::uint64_t seed = 0;        ///< The request's own RNG root.
  std::string deck;              ///< Rule set the request names.
  std::int64_t stride = 1;       ///< Sampling stride (routed_stream).
  std::int64_t arrival_us = 0;   ///< Due time from run start (routed_stream).
  int client = 0;                ///< Closed-loop client that sends it.
};

struct Plan {
  Workload workload = Workload::kServeFused;
  std::vector<PlannedRequest> requests;
};

/// Fixed shape of each workload's requests.
inline constexpr std::int64_t kFusedCount = 8;
inline constexpr int kFusedClients = 2;
inline constexpr std::int64_t kRoutedCount = 4;
inline constexpr std::int64_t kRoutedGeometries = 4;
inline constexpr int kRoutedWorkers = 2;

/// Requests a run issues: a nominal per-workload rate times `seconds`, but
/// never fewer than 100, so that at least 10 samples lie beyond p90.
std::int64_t planned_request_count(Workload workload, std::int64_t seconds);

Plan make_plan(Workload workload, std::uint64_t seed, std::int64_t seconds);

/// One line per request ("index seed deck stride arrival_us client"); the
/// byte-stability tests hash this text.
std::string plan_to_text(const Plan& plan);

/// SplitMix64 finalizer over (seed, index): the benchmark's only source of
/// randomness.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace dpbench
