// Ablation — diffusion step count K and noise schedule (Sec. III-C).
//
// Sweeps K at fixed training budget and reports: stationarity of the
// forward process (cumulative flip at K), probe denoising CE after
// training, pre-filter pass rate of samples, and per-topology sampling
// time. The paper picks K = 1000 with beta: 0.01 -> 0.5 so that q(x_K|x_0)
// reaches the uniform stationary distribution; this bench shows the
// trade-off the choice balances: too-small K underexplores (stationarity
// gap), larger K costs sampling time linearly. Sampling runs through the
// typed service API (SampleTopologiesRequest with a fixed seed) so the
// numbers measure the serving path.
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "legalize/constraints.h"

namespace dp = diffpattern;

int main() {
  dp::bench::print_header("Ablation — diffusion steps K and noise schedule");
  const auto scale = dp::bench::current_scale();
  const std::int64_t train_iters = scale.train_iterations / 2;
  const std::int64_t count = 24;
  std::cout << "(each configuration trained for " << train_iters
            << " iterations on the shared dataset)\n\n";

  auto base_cfg = dp::bench::bench_pipeline_config();
  std::cout << std::left << std::setw(8) << "K" << std::right << std::setw(16)
            << "cbar_K" << std::setw(14) << "probe CE" << std::setw(18)
            << "prefilter pass" << std::setw(18) << "sample s/topo" << "\n"
            << std::string(74, '-') << "\n";

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("count_per_point", static_cast<double>(count));
  for (const std::int64_t steps : {5, 10, 20, 40}) {
    auto cfg = base_cfg;
    cfg.schedule.steps = steps;
    cfg.train_iterations = train_iters;
    dp::core::Pipeline pipeline(cfg);
    pipeline.train();

    // Probe CE with fixed draws.
    dp::diffusion::BinarySchedule schedule(cfg.schedule);
    dp::common::Rng probe_rng(4242);
    const auto probe =
        pipeline.dataset().sample_training_batch(16, probe_rng);
    dp::common::Rng loss_rng(999);
    const auto breakdown =
        dp::diffusion::diffusion_loss(pipeline.model(), schedule, probe,
                                      dp::diffusion::LossConfig{}, loss_rng)
            .breakdown;

    dp::service::SampleTopologiesRequest request;
    request.model = dp::core::Pipeline::kServiceModel;
    request.count = count;
    request.seed = 808;  // Fixed: reruns of the sweep are byte-comparable.
    auto sampled = pipeline.service().sample_topologies(request);
    if (!sampled.ok()) {
      std::cerr << "K=" << steps << ": " << sampled.status().to_string()
                << "\n";
      return 2;
    }
    const double per_topology =
        sampled->stats.sampling_seconds / static_cast<double>(count);
    std::int64_t pass = 0;
    for (const auto& topology : sampled->topologies) {
      if (dp::legalize::prefilter_topology(topology) ==
          dp::legalize::PrefilterVerdict::ok) {
        ++pass;
      }
    }
    const double pass_rate =
        static_cast<double>(pass) / static_cast<double>(count);
    const double stationary = schedule.cumulative_flip(steps);
    std::cout << std::left << std::setw(8) << steps << std::right
              << std::setw(16) << std::fixed << std::setprecision(6)
              << stationary << std::setw(14) << std::setprecision(4)
              << breakdown.cross_entropy << std::setw(17)
              << std::setprecision(2) << pass_rate * 100.0 << "%"
              << std::setw(18) << std::setprecision(4) << per_topology
              << "\n";
    const std::string prefix = "k" + std::to_string(steps);
    metrics.emplace_back(prefix + "_stationary_flip", stationary);
    metrics.emplace_back(prefix + "_probe_ce", breakdown.cross_entropy);
    metrics.emplace_back(prefix + "_prefilter_pass", pass_rate);
    metrics.emplace_back(prefix + "_sample_seconds_per_topology",
                         per_topology);
  }
  std::cout << "\nExpected shape: cbar_K -> 0.5 already for small K (the "
            << "paper's beta range is aggressive); sampling cost grows "
            << "linearly in K; sample quality (pre-filter pass) improves "
            << "with K until the training budget binds.\n";
  const auto path = dp::bench::write_bench_json("ablation_schedule", metrics);
  std::cout << "schedule ablation written to " << path << "\n";
  return 0;
}
