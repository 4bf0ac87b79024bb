// Table II — model efficiency: per-topology sampling time and the
// Solving-R vs Solving-E geometry-assignment comparison.
//
// Uses google-benchmark for the timings, then prints a Table II-style
// summary with the measured acceleration factor (paper: Solving-E achieves
// 2.30x over Solving-R thanks to near-feasible initialization from existing
// geometric vectors; exact ratios are machine- and scale-dependent, the
// expected shape is Solving-E faster with fewer repair rounds).
#include <benchmark/benchmark.h>

#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "common/timer.h"
#include "io/io.h"
#include "legalize/solver.h"

namespace dp = diffpattern;

namespace {

/// Pre-sampled topologies shared by the solving benchmarks.
struct SolverFixture {
  std::vector<dp::geometry::BinaryGrid> topologies;
  const dp::datagen::Dataset* dataset = nullptr;
  dp::drc::DesignRules rules;
  dp::geometry::Coord tile = 0;
};

SolverFixture& fixture() {
  static SolverFixture fx = [] {
    auto& pipeline = dp::bench::shared_trained_pipeline();
    SolverFixture out;
    out.dataset = &pipeline.dataset();
    out.rules = pipeline.config().datagen.rules;
    out.tile = pipeline.config().datagen.tile;
    const auto sampled =
        dp::bench::service_sample_topologies(48, /*seed=*/11);
    for (const auto& topology : sampled) {
      if (dp::legalize::prefilter_topology(topology) ==
          dp::legalize::PrefilterVerdict::ok) {
        out.topologies.push_back(topology);
      }
    }
    // Guarantee a non-empty working set even for an under-trained model.
    if (out.topologies.size() < 8) {
      for (const auto& p : out.dataset->patterns) {
        out.topologies.push_back(p.topology);
        if (out.topologies.size() >= 16) {
          break;
        }
      }
    }
    return out;
  }();
  return fx;
}

struct SolveAggregate {
  double seconds_per_solve = 0.0;
  double rounds_per_solve = 0.0;
  double success_ratio = 0.0;
};

SolveAggregate measure_solver(dp::legalize::InitMode mode,
                              dp::legalize::SolverBackend backend,
                              std::int64_t repetitions) {
  auto& fx = fixture();
  dp::legalize::SolverConfig config;
  config.init = mode;
  config.backend = backend;
  dp::common::Rng rng(mode == dp::legalize::InitMode::solving_e ? 5 : 6);
  const auto* library = mode == dp::legalize::InitMode::solving_e
                            ? &fx.dataset->library
                            : nullptr;
  SolveAggregate agg;
  std::int64_t solves = 0;
  std::int64_t successes = 0;
  double seconds = 0.0;
  double rounds = 0.0;
  for (std::int64_t rep = 0; rep < repetitions; ++rep) {
    for (const auto& topology : fx.topologies) {
      const auto result = dp::legalize::legalize_topology(
          topology, fx.rules, fx.tile, fx.tile, config, rng, library);
      seconds += result.stats.seconds;
      rounds += static_cast<double>(result.stats.rounds);
      successes += result.success ? 1 : 0;
      ++solves;
    }
  }
  agg.seconds_per_solve = seconds / static_cast<double>(solves);
  agg.rounds_per_solve = rounds / static_cast<double>(solves);
  agg.success_ratio =
      static_cast<double>(successes) / static_cast<double>(solves);
  return agg;
}

void bm_topology_sampling(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto topologies = dp::bench::service_sample_topologies(1, seed++);
    benchmark::DoNotOptimize(topologies);
  }
}
BENCHMARK(bm_topology_sampling)->Unit(benchmark::kMillisecond);

void bm_solving_r(benchmark::State& state) {
  auto& fx = fixture();
  dp::legalize::SolverConfig config;
  config.init = dp::legalize::InitMode::solving_r;
  dp::common::Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& topology = fx.topologies[i++ % fx.topologies.size()];
    auto result = dp::legalize::legalize_topology(topology, fx.rules, fx.tile,
                                                  fx.tile, config, rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_solving_r)->Unit(benchmark::kMicrosecond);

void bm_solving_e(benchmark::State& state) {
  auto& fx = fixture();
  dp::legalize::SolverConfig config;
  config.init = dp::legalize::InitMode::solving_e;
  dp::common::Rng rng(2);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& topology = fx.topologies[i++ % fx.topologies.size()];
    auto result = dp::legalize::legalize_topology(
        topology, fx.rules, fx.tile, fx.tile, config, rng,
        &fx.dataset->library);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_solving_e)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  dp::bench::print_header("Table II — model efficiency (scaled reproduction)");

  // Summary table first (independent of google-benchmark's own output).
  (void)dp::bench::shared_service();  // Train or load before timing.
  dp::common::Timer sample_timer;
  const std::int64_t sample_count = 16;
  (void)dp::bench::service_sample_topologies(sample_count, /*seed=*/12);
  const double sampling_per_topology =
      sample_timer.seconds() / static_cast<double>(sample_count);

  // Penalty-descent backend = the paper's NLP setting (init-sensitive);
  // repair backend = this library's engineered solver (init-insensitive).
  const auto pen_r = measure_solver(dp::legalize::InitMode::solving_r,
                                    dp::legalize::SolverBackend::penalty_descent, 3);
  const auto pen_e = measure_solver(dp::legalize::InitMode::solving_e,
                                    dp::legalize::SolverBackend::penalty_descent, 3);
  const auto rep_r = measure_solver(dp::legalize::InitMode::solving_r,
                                    dp::legalize::SolverBackend::repair, 3);
  const auto rep_e = measure_solver(dp::legalize::InitMode::solving_e,
                                    dp::legalize::SolverBackend::repair, 3);
  const auto accel = [](const SolveAggregate& base,
                        const SolveAggregate& fast) {
    return fast.seconds_per_solve > 0.0
               ? base.seconds_per_solve / fast.seconds_per_solve
               : 0.0;
  };

  std::cout << std::left << std::setw(28) << "Phase/Method" << std::right
            << std::setw(16) << "Cost Time (s)" << std::setw(14)
            << "Acceleration" << std::setw(12) << "Iters" << std::setw(10)
            << "Success" << "\n"
            << std::string(80, '-') << "\n";
  const auto print_row = [&](const std::string& name,
                             const SolveAggregate& agg, double acceleration) {
    std::cout << std::left << std::setw(28) << name << std::right
              << std::setw(16) << std::scientific << std::setprecision(3)
              << agg.seconds_per_solve << std::setw(13) << std::fixed
              << std::setprecision(2) << acceleration << "x" << std::setw(12)
              << std::setprecision(1) << agg.rounds_per_solve << std::setw(10)
              << std::setprecision(2) << agg.success_ratio << "\n";
  };
  std::cout << std::left << std::setw(28) << "Sampling" << std::right
            << std::setw(16) << std::scientific << std::setprecision(3)
            << sampling_per_topology << std::setw(14) << "N/A"
            << std::setw(12) << "-" << std::setw(10) << "-" << "\n";
  print_row("Solving-R (penalty NLP)", pen_r, 1.0);
  print_row("Solving-E (penalty NLP)", pen_e, accel(pen_r, pen_e));
  print_row("Solving-R (repair)", rep_r, accel(pen_r, rep_r));
  print_row("Solving-E (repair)", rep_e, accel(pen_r, rep_e));
  std::cout << "\nPaper reference (Table II): sampling 0.544 s (RTX 3090, "
            << "K = 1000, 16x32x32), Solving-R 0.269 s, Solving-E 0.117 s "
            << "(2.30x). Expected shape: with the generic penalty/NLP "
            << "backend, Solving-E converges in ~2-3x fewer iterations; the "
            << "special-purpose repair solver removes the init sensitivity "
            << "altogether (ablation).\n\n";

  std::ostringstream csv;
  csv << "phase,backend,seconds_per_item,acceleration,iterations,success\n"
      << "sampling,," << sampling_per_topology << ",,,\n"
      << "solving_r,penalty," << pen_r.seconds_per_solve << ",1.0,"
      << pen_r.rounds_per_solve << ',' << pen_r.success_ratio << "\n"
      << "solving_e,penalty," << pen_e.seconds_per_solve << ','
      << accel(pen_r, pen_e) << ',' << pen_e.rounds_per_solve << ','
      << pen_e.success_ratio << "\n"
      << "solving_r,repair," << rep_r.seconds_per_solve << ','
      << accel(pen_r, rep_r) << ',' << rep_r.rounds_per_solve << ','
      << rep_r.success_ratio << "\n"
      << "solving_e,repair," << rep_e.seconds_per_solve << ','
      << accel(pen_r, rep_e) << ',' << rep_e.rounds_per_solve << ','
      << rep_e.success_ratio << "\n";
  dp::io::write_text_file(dp::bench::output_directory() + "/table2.csv",
                          csv.str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
