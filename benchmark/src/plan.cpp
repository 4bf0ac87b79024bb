#include "plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dpbench {

namespace {

// serve_fused's nominal completion rate (requests/s) on a 4-core host, used
// only to size its fixed request list so that a run lasts about `seconds`.
// A faster program finishes the same list sooner; the list never changes.
constexpr double kFusedNominalRate = 7.0;
// routed_stream's offered load, fixed: about 0.3 of the ~80 req/s the
// routed plane completes when saturated on a 4-core host. At 0.5 of
// capacity its latency percentiles moved +-15% from seed to seed (long,
// correlated busy periods); at 0.3 they stay within +-3%.
constexpr double kRoutedRate = 24.0;

const char* const kBuiltinDecks[] = {"normal", "space", "area"};

double unit_interval(std::uint64_t bits) {
  // 53 high bits -> [0, 1).
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (const auto w : {Workload::kServeFused, Workload::kRoutedStream}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kServeFused:
      return "serve_fused";
    case Workload::kRoutedStream:
      return "routed_stream";
  }
  return "?";
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::int64_t planned_request_count(Workload workload, std::int64_t seconds) {
  const double rate =
      workload == Workload::kRoutedStream ? kRoutedRate : kFusedNominalRate;
  return std::max<std::int64_t>(
      100, static_cast<std::int64_t>(
               std::ceil(rate * static_cast<double>(seconds))));
}

Plan make_plan(Workload workload, std::uint64_t seed, std::int64_t seconds) {
  Plan plan;
  plan.workload = workload;
  const auto n = planned_request_count(workload, seconds);
  // routed_stream: Poisson arrivals conditioned on the run's length — the
  // exponential gaps are rescaled so the last request is due at exactly
  // n / rate, which keeps the offered load identical across seeds.
  std::vector<double> gaps;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    PlannedRequest r;
    r.index = i;
    r.seed = mix_seed(seed, 3 * u);
    switch (workload) {
      case Workload::kServeFused:
        r.deck = kBuiltinDecks[i % 3];
        r.client = static_cast<int>(i % kFusedClients);
        break;
      case Workload::kRoutedStream:
        r.deck = kBuiltinDecks[i % 3];
        // Strides 1 : 4 : 10 in exact proportion 1 : 3 : 3 (shuffled
        // below). Latency is multimodal by stride (a stride-1 request runs
        // 10x the rounds of a stride-10 one); with this mix the median
        // falls in the lower part of the stride-4 mode and p90 in the
        // lower part of the stride-1 mode, never in a gap between modes
        // where a percentile jumps from run to run.
        r.stride = i % 7 == 0 ? 1 : (i % 7 <= 3 ? 4 : 10);
        gaps.push_back(
            -std::log1p(-unit_interval(mix_seed(seed, 3 * u + 2))));
        break;
    }
    plan.requests.push_back(std::move(r));
  }
  if (!gaps.empty()) {
    for (std::size_t i = plan.requests.size(); i > 1; --i) {
      const auto j = mix_seed(seed, 3 * (i - 1) + 1) % i;
      std::swap(plan.requests[i - 1].stride, plan.requests[j].stride);
    }
    double total = 0.0;
    for (const double g : gaps) {
      total += g;
    }
    const double scale = static_cast<double>(n) / kRoutedRate * 1e6 / total;
    double due_us = 0.0;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
      due_us += gaps[i] * scale;
      plan.requests[i].arrival_us = static_cast<std::int64_t>(due_us);
    }
  }
  return plan;
}

std::string plan_to_text(const Plan& plan) {
  std::ostringstream out;
  for (const auto& r : plan.requests) {
    out << r.index << ' ' << r.seed << ' ' << r.deck << ' ' << r.stride << ' '
        << r.arrival_us << ' ' << r.client << '\n';
  }
  return out.str();
}

}  // namespace dpbench
