// Service throughput: fused batched sampling across queued requests vs
// sequential per-request sampling.
//
// The PatternService executes reverse diffusion for concurrently queued
// requests as one fused batch per denoising round, so the U-Net forward
// passes (the dominant cost) are amortized across requests — and since the
// parallel compute backend, each fused forward additionally fans out over
// the tensor pool. This bench issues the same requests twice — serially on
// a 1-thread pool (the single-thread baseline), then from concurrent client
// threads on the ambient pool — and reports wall time, samples/sec, the
// fused batch sizes the batcher actually formed, and verifies that
// per-request seeds reproduce the baseline topologies bit-for-bit across
// BOTH the batching and the thread-count change.
//
// A second phase registers the same trained weights under a second model
// name and races a heavy multi-round request against light requests on the
// other model: with one batcher shard per model, the light model's wall
// time must not degrade to the heavy model's (no head-of-line blocking),
// with byte-identical outputs. Emits BENCH_service_throughput.json and
// BENCH_service_sharded.json.
#include <condition_variable>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/compute_pool.h"
#include "common/timer.h"
#include "io/io.h"

namespace dp = diffpattern;

namespace {

struct RunResult {
  std::vector<dp::service::SampleTopologiesResult> responses;
  double wall_seconds = 0.0;
};

dp::service::SampleTopologiesRequest request_for(int client) {
  dp::service::SampleTopologiesRequest request;
  request.model = dp::core::Pipeline::kServiceModel;
  // One topology per request — the worst case for a per-request server
  // (every U-Net forward serves a single slot) and the case production
  // traffic mostly looks like.
  request.count = 1;
  request.seed = 1000 + static_cast<std::uint64_t>(client);
  return request;
}

RunResult run_sequential(dp::service::PatternService& service, int clients) {
  RunResult run;
  run.responses.resize(static_cast<std::size_t>(clients));
  dp::common::Timer timer;
  for (int c = 0; c < clients; ++c) {
    auto result = service.sample_topologies(request_for(c));
    if (!result.ok()) {
      std::cerr << "[bench] sequential request failed: "
                << result.status().to_string() << "\n";
      std::abort();
    }
    run.responses[static_cast<std::size_t>(c)] = std::move(result).value();
  }
  run.wall_seconds = timer.seconds();
  return run;
}

RunResult run_concurrent(dp::service::PatternService& service, int clients) {
  RunResult run;
  run.responses.resize(static_cast<std::size_t>(clients));
  // Pre-spawn the client threads behind a start gate so thread creation is
  // not charged to the measured window — the timer covers first enqueue to
  // last completion, like the sequential mode's loop.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return gate_open; });
      }
      auto result = service.sample_topologies(request_for(c));
      if (!result.ok()) {
        std::cerr << "[bench] concurrent request failed: "
                  << result.status().to_string() << "\n";
        std::abort();
      }
      run.responses[static_cast<std::size_t>(c)] = std::move(result).value();
    });
  }
  dp::common::Timer timer;
  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (auto& t : threads) {
    t.join();
  }
  run.wall_seconds = timer.seconds();
  return run;
}

/// Two-model mixed workload (the sharding bench): one heavy multi-round
/// request on `heavy_model` racing `alt_clients` single-topology requests
/// on `alt_model`, each model on its own batcher shard. Returns per-group
/// wall seconds measured from a shared start gate.
struct MixedResult {
  std::vector<dp::service::SampleTopologiesResult> alt_responses;
  dp::service::SampleTopologiesResult heavy_response;
  double alt_wall_seconds = 0.0;
  double heavy_wall_seconds = 0.0;
};

MixedResult run_mixed(dp::service::PatternService& service,
                      const std::string& heavy_model,
                      std::int64_t heavy_count, const std::string& alt_model,
                      int alt_clients, bool with_heavy) {
  MixedResult run;
  run.alt_responses.resize(static_cast<std::size_t>(alt_clients));
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  const auto wait_gate = [&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  const auto must = [](auto result) {
    if (!result.ok()) {
      std::cerr << "[bench] sharded request failed: "
                << result.status().to_string() << "\n";
      std::abort();
    }
    return std::move(result).value();
  };

  std::vector<std::thread> alt_threads;
  alt_threads.reserve(static_cast<std::size_t>(alt_clients));
  for (int c = 0; c < alt_clients; ++c) {
    alt_threads.emplace_back([&, c] {
      wait_gate();
      dp::service::SampleTopologiesRequest request;
      request.model = alt_model;
      request.count = 1;
      request.seed = 2000 + static_cast<std::uint64_t>(c);
      run.alt_responses[static_cast<std::size_t>(c)] =
          must(service.sample_topologies(request));
    });
  }
  std::thread heavy_thread;
  if (with_heavy) {
    heavy_thread = std::thread([&] {
      wait_gate();
      dp::service::SampleTopologiesRequest request;
      request.model = heavy_model;
      request.count = heavy_count;
      request.seed = 4242;
      run.heavy_response = must(service.sample_topologies(request));
    });
  }
  dp::common::Timer timer;
  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (auto& t : alt_threads) {
    t.join();
  }
  run.alt_wall_seconds = timer.seconds();
  if (with_heavy) {
    heavy_thread.join();
    run.heavy_wall_seconds = timer.seconds();
  }
  return run;
}

bool same_topologies(const dp::service::SampleTopologiesResult& a,
                     const dp::service::SampleTopologiesResult& b) {
  if (a.topologies.size() != b.topologies.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.topologies.size(); ++i) {
    if (!(a.topologies[i] == b.topologies[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  dp::bench::print_header(
      "Service throughput: fused batched vs sequential sampling");
  auto& service = dp::bench::shared_service();
  constexpr int kClients = 16;  // == the wrapper service's max_fused_batch.

  // Interleave repetitions of both modes so allocator warm-up and machine
  // noise hit them symmetrically; keep the best run of each (the standard
  // min-of-reps protocol for wall-clock benches). The sequential mode is
  // pinned to a 1-thread compute pool — the pre-backend baseline — while
  // the concurrent mode gets the ambient pool (DIFFPATTERN_THREADS or all
  // hardware threads), so the speedup captures batching × kernel
  // parallelism against true single-thread execution.
  const auto ambient_threads = dp::common::global_compute_threads();
  constexpr int kReps = 5;
  RunResult sequential;
  RunResult concurrent;
  for (int rep = 0; rep < kReps; ++rep) {
    std::cout << "[bench] rep " << (rep + 1) << "/" << kReps << ": "
              << kClients << " single-topology requests, sequential (1 "
              << "thread) then concurrent (" << ambient_threads
              << " threads)...\n";
    if (!dp::common::set_global_compute_threads(1).ok()) {
      std::abort();
    }
    auto seq = run_sequential(service, kClients);
    if (rep == 0 || seq.wall_seconds < sequential.wall_seconds) {
      sequential = std::move(seq);
    }
    if (!dp::common::set_global_compute_threads(ambient_threads).ok()) {
      std::abort();
    }
    auto conc = run_concurrent(service, kClients);
    if (rep == 0 || conc.wall_seconds < concurrent.wall_seconds) {
      concurrent = std::move(conc);
    }
  }

  std::int64_t max_fused = 0;
  for (const auto& response : concurrent.responses) {
    max_fused = std::max(max_fused, response.stats.fused_batch_slots);
  }

  // Per-request seeds must make concurrency invisible in the output.
  bool identical = true;
  for (int c = 0; c < kClients; ++c) {
    const auto& a = sequential.responses[static_cast<std::size_t>(c)];
    const auto& b = concurrent.responses[static_cast<std::size_t>(c)];
    identical = identical && a.topologies.size() == b.topologies.size();
    for (std::size_t i = 0; identical && i < a.topologies.size(); ++i) {
      identical = a.topologies[i] == b.topologies[i];
    }
  }

  const double speedup = concurrent.wall_seconds > 0.0
                             ? sequential.wall_seconds /
                                   concurrent.wall_seconds
                             : 0.0;
  const double seq_rate = sequential.wall_seconds > 0.0
                              ? kClients / sequential.wall_seconds
                              : 0.0;
  const double conc_rate = concurrent.wall_seconds > 0.0
                               ? kClients / concurrent.wall_seconds
                               : 0.0;
  const auto rounds = dp::bench::current_scale().diffusion_steps;
  const double ms_per_round =
      rounds > 0 ? concurrent.wall_seconds * 1000.0 /
                       static_cast<double>(rounds)
                 : 0.0;
  std::cout << "\nsequential wall time:  " << sequential.wall_seconds
            << " s (every request in its own round, 1 compute thread)\n"
            << "concurrent wall time:  " << concurrent.wall_seconds
            << " s (fused rounds of up to " << max_fused << " slots, "
            << ambient_threads << " compute threads)\n"
            << "samples/sec:           " << seq_rate << " -> " << conc_rate
            << "\n"
            << "speedup:               " << speedup << "x\n"
            << "bit-identical output:  " << (identical ? "yes" : "NO")
            << "\n";

  const auto csv_path =
      dp::bench::output_directory() + "/service_throughput.csv";
  dp::io::write_text_file(
      csv_path,
      "mode,clients,wall_seconds,max_fused_slots\nsequential," +
          std::to_string(kClients) + "," +
          std::to_string(sequential.wall_seconds) + ",1\nconcurrent," +
          std::to_string(kClients) + "," +
          std::to_string(concurrent.wall_seconds) + "," +
          std::to_string(max_fused) + "\n");
  std::cout << "CSV written to " << csv_path << "\n";
  dp::bench::write_bench_json(
      "service_throughput",
      {{"clients", static_cast<double>(kClients)},
       {"sequential_wall_seconds", sequential.wall_seconds},
       {"concurrent_wall_seconds", concurrent.wall_seconds},
       {"sequential_samples_per_sec", seq_rate},
       {"concurrent_samples_per_sec", conc_rate},
       {"ms_per_denoising_round", ms_per_round},
       {"speedup_vs_sequential", speedup},
       {"max_fused_slots", static_cast<double>(max_fused)},
       {"bit_identical", identical ? 1.0 : 0.0}});

  // ---------------------------------------------------- sharded workload
  // Two-model mixed load: a heavy multi-round request on one model racing
  // light single-topology requests on a second model. With per-model
  // shards the light model keeps making rounds while the heavy model
  // chunks through admission, so its wall time under mixed load stays
  // near its solo wall time (no head-of-line blocking) — and both models'
  // outputs stay byte-identical to their solo runs.
  dp::bench::print_header(
      "Sharded two-model mixed workload (head-of-line blocking)");
  const std::string heavy_model = dp::core::Pipeline::kServiceModel;
  const std::string alt_model = "alt";
  auto& pipeline = dp::bench::shared_trained_pipeline();
  {
    const auto status = service.models().register_model(
        alt_model, dp::bench::bench_pipeline_config().to_model_config(),
        pipeline.model().registry(), pipeline.dataset().library);
    if (!status.ok()) {
      std::cerr << "[bench] alt model registration failed: "
                << status.to_string() << "\n";
      std::abort();
    }
  }
  constexpr std::int64_t kHeavyCount = 32;  // 2x max_fused_batch: >1 round.
  constexpr int kAltClients = 8;
  MixedResult solo;
  MixedResult mixed;
  for (int rep = 0; rep < kReps; ++rep) {
    std::cout << "[bench] rep " << (rep + 1) << "/" << kReps << ": "
              << kAltClients << " light '" << alt_model
              << "' requests solo, then against a " << kHeavyCount
              << "-topology '" << heavy_model << "' request...\n";
    auto s = run_mixed(service, heavy_model, kHeavyCount, alt_model,
                       kAltClients, /*with_heavy=*/false);
    if (rep == 0 || s.alt_wall_seconds < solo.alt_wall_seconds) {
      solo = std::move(s);
    }
    auto m = run_mixed(service, heavy_model, kHeavyCount, alt_model,
                       kAltClients, /*with_heavy=*/true);
    if (rep == 0 || m.alt_wall_seconds < mixed.alt_wall_seconds) {
      mixed = std::move(m);
    }
  }

  // Sharding must be invisible in the bytes: light requests match their
  // solo run, the heavy request matches a fresh solo reference.
  bool sharded_identical = true;
  for (int c = 0; c < kAltClients; ++c) {
    sharded_identical =
        sharded_identical &&
        same_topologies(solo.alt_responses[static_cast<std::size_t>(c)],
                        mixed.alt_responses[static_cast<std::size_t>(c)]);
  }
  {
    dp::service::SampleTopologiesRequest reference;
    reference.model = heavy_model;
    reference.count = kHeavyCount;
    reference.seed = 4242;
    auto solo_heavy = service.sample_topologies(reference);
    sharded_identical = sharded_identical && solo_heavy.ok() &&
                        same_topologies(*solo_heavy, mixed.heavy_response);
  }

  const double blocking_ratio =
      solo.alt_wall_seconds > 0.0
          ? mixed.alt_wall_seconds / solo.alt_wall_seconds
          : 0.0;
  const double alt_rate_solo = solo.alt_wall_seconds > 0.0
                                   ? kAltClients / solo.alt_wall_seconds
                                   : 0.0;
  const double alt_rate_mixed = mixed.alt_wall_seconds > 0.0
                                    ? kAltClients / mixed.alt_wall_seconds
                                    : 0.0;
  const double heavy_rate =
      mixed.heavy_wall_seconds > 0.0
          ? static_cast<double>(kHeavyCount) / mixed.heavy_wall_seconds
          : 0.0;
  const auto counters = service.counters();
  std::cout << "\nlight model solo:      " << solo.alt_wall_seconds << " s ("
            << alt_rate_solo << " samples/s)\n"
            << "light model vs heavy:  " << mixed.alt_wall_seconds << " s ("
            << alt_rate_mixed << " samples/s)\n"
            << "blocking ratio:        " << blocking_ratio
            << "x (1.0 = no head-of-line blocking; compute is still "
            << "shared)\n"
            << "heavy model (mixed):   " << mixed.heavy_wall_seconds
            << " s (" << heavy_rate << " samples/s)\n"
            << "bit-identical output:  " << (sharded_identical ? "yes" : "NO")
            << "\n"
            << "rounds executed:       " << counters.rounds_executed
            << " (fill ratio " << counters.fused_fill_ratio << ", "
            << counters.shards_active << " shards)\n";
  dp::bench::write_bench_json(
      "service_sharded",
      {{"heavy_count", static_cast<double>(kHeavyCount)},
       {"alt_clients", static_cast<double>(kAltClients)},
       {"alt_solo_wall_seconds", solo.alt_wall_seconds},
       {"alt_mixed_wall_seconds", mixed.alt_wall_seconds},
       {"heavy_mixed_wall_seconds", mixed.heavy_wall_seconds},
       {"alt_solo_samples_per_sec", alt_rate_solo},
       {"alt_mixed_samples_per_sec", alt_rate_mixed},
       {"heavy_mixed_samples_per_sec", heavy_rate},
       {"alt_blocking_ratio", blocking_ratio},
       {"rounds_executed", static_cast<double>(counters.rounds_executed)},
       {"fused_fill_ratio", counters.fused_fill_ratio},
       {"shards_active", static_cast<double>(counters.shards_active)},
       {"bit_identical", sharded_identical ? 1.0 : 0.0}});

  return identical && sharded_identical && speedup > 1.0 ? 0 : 1;
}
