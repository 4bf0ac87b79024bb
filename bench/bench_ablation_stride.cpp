// Quality-vs-latency frontier — reduced-step sampling on the service path.
//
// The paper cites DDIM [12] as the fast-sampling counterpart of its DDPM
// backbone; DiffPattern-Flex builds its efficiency on exactly this
// trade-off. This bench drives the PRODUCTION path: typed GenerateRequests
// against the shared PatternService with the `sampling` knob set, sweeping
// both axes of the knob — direct strides and step targets (which the
// service resolves to the coarsest stride meeting the target). Each point
// reports sampling throughput, pre-filter pass rate, and legalization rate,
// i.e. where the request lands on the quality-vs-latency frontier. The
// points land in bench_out/BENCH_frontier.json. The bench also checks each
// point's eval accounting against the step plan and exits 1 on a mismatch
// (timings are reported, never gated).
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "diffusion/diffusion.h"

namespace dp = diffpattern;

int main() {
  dp::bench::print_header(
      "Frontier — reduced-step sampling (stride x schedule, service path)");
  auto& service = dp::bench::shared_service();
  const auto cfg = dp::bench::bench_pipeline_config();
  const auto k = cfg.schedule.steps;
  const dp::diffusion::BinarySchedule schedule(cfg.schedule);
  const std::int64_t count = 32;

  struct Point {
    std::string label;
    dp::service::SamplingSpec spec;
  };
  std::vector<Point> points;
  for (const std::int64_t stride : {1, 2, 4, 8}) {
    Point p;
    p.label = "stride" + std::to_string(stride);
    p.spec.stride = stride;
    points.push_back(p);
  }
  // The steps axis of the same knob: target a reduced evaluation budget and
  // let the service derive the stride (proves the steps -> stride mapping
  // end to end on the serving path).
  for (const std::int64_t steps :
       {std::max<std::int64_t>(1, k / 2), std::max<std::int64_t>(1, k / 8)}) {
    Point p;
    p.label = "steps" + std::to_string(steps);
    p.spec.steps = steps;
    points.push_back(p);
  }

  std::cout << std::left << std::setw(10) << "point" << std::right
            << std::setw(10) << "stride" << std::setw(10) << "steps"
            << std::setw(14) << "samples/s" << std::setw(18)
            << "prefilter pass" << std::setw(12) << "legal" << "\n"
            << std::string(74, '-') << "\n";

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("schedule_steps", static_cast<double>(k));
  metrics.emplace_back("chain_start",
                       static_cast<double>(schedule.chain_start()));
  metrics.emplace_back("count_per_point", static_cast<double>(count));
  double stride1_rate = 0.0;
  double stride4_rate = 0.0;
  bool accounting_ok = true;
  for (const auto& point : points) {
    dp::service::GenerateRequest request;
    request.model = dp::core::Pipeline::kServiceModel;
    request.count = count;
    request.seed = 2023;
    request.sampling = point.spec;
    auto result = service.generate(request);
    if (!result.ok()) {
      std::cerr << "frontier point " << point.label << ": "
                << result.status().to_string() << "\n";
      return 2;
    }
    const auto& stats = result->stats;
    const double samples_per_s =
        stats.sampling_seconds > 0.0
            ? static_cast<double>(count) / stats.sampling_seconds
            : 0.0;
    const auto legal =
        stats.topologies_admitted - stats.prefilter_rejected -
        stats.solver_rejected;
    const double prefilter_pass =
        1.0 - static_cast<double>(stats.prefilter_rejected) /
                  static_cast<double>(stats.topologies_admitted);
    const double legal_rate = static_cast<double>(legal) /
                              static_cast<double>(stats.topologies_admitted);
    if (point.label == "stride1") {
      stride1_rate = samples_per_s;
    }
    if (point.label == "stride4") {
      stride4_rate = samples_per_s;
    }
    std::cout << std::left << std::setw(10) << point.label << std::right
              << std::setw(10) << stats.sampling_stride << std::setw(10)
              << stats.steps_run << std::setw(14) << std::fixed
              << std::setprecision(2) << samples_per_s << std::setw(17)
              << std::setprecision(1) << 100.0 * prefilter_pass << "%"
              << std::setw(12) << legal << "\n";
    // Every topology runs exactly its step plan, one U-Net evaluation per
    // visit.
    const auto plan = dp::diffusion::plan_length(schedule,
                                                 stats.sampling_stride);
    if (stats.steps_run != plan || stats.net_evals != count * plan) {
      std::cerr << "frontier point " << point.label << ": steps_run "
                << stats.steps_run << " and net_evals " << stats.net_evals
                << " disagree with the step plan (" << plan
                << " visits per topology, " << count << " topologies)\n";
      accounting_ok = false;
    }
    metrics.emplace_back(point.label + "_samples_per_s", samples_per_s);
    metrics.emplace_back(point.label + "_prefilter_pass", prefilter_pass);
    metrics.emplace_back(point.label + "_legal_rate", legal_rate);
    metrics.emplace_back(point.label + "_steps_run",
                         static_cast<double>(stats.steps_run));
    metrics.emplace_back(point.label + "_net_evals",
                         static_cast<double>(stats.net_evals));
  }
  const double speedup =
      stride1_rate > 0.0 ? stride4_rate / stride1_rate : 0.0;
  metrics.emplace_back("stride4_speedup_x", speedup);
  std::cout << "\nstride-4 sampling speedup over the full schedule: "
            << std::setprecision(2) << speedup << "x (expected >= 3x: the "
            << "U-Net evaluations drop 4x and the fused batch narrows "
            << "accordingly)\n";
  const auto path = dp::bench::write_bench_json("frontier", metrics);
  std::cout << "frontier written to " << path << "\n";
  return accounting_ok ? 0 : 1;
}
