// Fig. 6 — visualization of the reverse (denoising) diffusion chain.
//
// Samples one batch while recording the chain T_{K_eps} -> ... -> T_0 (the
// chain starts at K_eps, where the schedule's signal ends): PGM frames of
// the flattened topology at selected steps plus a CSV trace of the
// per-step shape density and marginal entropy. The expected shape matches
// the paper's figure: near-uniform noise at k = K_eps annealing into a
// crisp Manhattan topology at k = 0.
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "io/io.h"
#include "layout/deep_squish.h"
#include "tensor/tensor_ops.h"

namespace dp = diffpattern;

int main() {
  dp::bench::print_header("Fig. 6 — reverse diffusion chain");
  auto& pipeline = dp::bench::shared_trained_pipeline();
  const auto& cfg = pipeline.config();
  dp::diffusion::BinarySchedule schedule(cfg.schedule);
  const auto start = schedule.chain_start();
  const auto out_dir = dp::bench::output_directory();

  dp::layout::DeepSquishConfig fold;
  fold.channels = cfg.channels;
  const auto side = cfg.folded_side();

  struct TracePoint {
    std::int64_t k;
    double density;
    double entropy;
  };
  std::vector<TracePoint> trace;
  const std::int64_t frame_every = std::max<std::int64_t>(1, start / 8);

  dp::common::Rng rng(99);
  // One slot over the full schedule; the observer sees every step
  // K_eps..0.
  dp::diffusion::sample_streams_strided(
      pipeline.model(), schedule, side, side, dp::diffusion::SamplerConfig{},
      {&rng}, {1}, nullptr, [&](std::int64_t k, const dp::tensor::Tensor& x) {
        const double ones = dp::tensor::sum(x);
        const double density = ones / static_cast<double>(x.numel());
        const double p = std::clamp(density, 1e-9, 1.0 - 1e-9);
        const double entropy = -p * std::log2(p) -
                               (1.0 - p) * std::log2(1.0 - p);
        trace.push_back({k, density, entropy});
        if (k % frame_every == 0 || k == start) {
          dp::tensor::Tensor one({fold.channels, side, side});
          std::copy(x.data(), x.data() + one.numel(), one.data());
          const auto grid = dp::layout::unfold_topology(one, fold);
          std::ostringstream path;
          path << out_dir << "/fig6_step_" << std::setfill('0')
               << std::setw(4) << k << ".pgm";
          dp::io::write_grid_pgm(path.str(), grid, 8);
        }
      });

  std::cout << std::left << std::setw(8) << "k" << std::right << std::setw(12)
            << "density" << std::setw(18) << "marginal H (bits)" << "\n"
            << std::string(38, '-') << "\n";
  for (const auto& point : trace) {
    if (point.k % frame_every == 0 || point.k == start || point.k == 0) {
      std::cout << std::left << std::setw(8) << point.k << std::right
                << std::setw(12) << std::fixed << std::setprecision(4)
                << point.density << std::setw(18) << std::setprecision(4)
                << point.entropy << "\n";
    }
  }
  std::cout << "\nExpected shape: density ~0.5 (entropy ~1 bit) at k = "
            << start << " (K_eps of K = " << cfg.schedule.steps << "), "
            << "annealing toward the dataset's shape density as k -> 0.\n";
  std::cout << "Frames written to " << out_dir << "/fig6_step_*.pgm\n";

  std::ostringstream csv;
  csv << "k,density,marginal_entropy_bits\n";
  for (const auto& point : trace) {
    csv << point.k << ',' << point.density << ',' << point.entropy << "\n";
  }
  dp::io::write_text_file(out_dir + "/fig6_trace.csv", csv.str());
  return 0;
}
