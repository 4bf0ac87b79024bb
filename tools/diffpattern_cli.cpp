// diffpattern_cli — command-line driver for the DiffPattern pipeline.
//
//   diffpattern_cli train    --out model.ckpt [--iters N] [--tiles N] [--seed S]
//   diffpattern_cli generate --model model.ckpt --out library.bin
//                            [--count N] [--geometries N] [--rules normal|space|area]
//                            [--stream] [--stats]
//   diffpattern_cli evaluate --library library.bin [--rules normal|space|area]
//   diffpattern_cli render   --library library.bin --out-dir DIR [--limit N]
//   diffpattern_cli serve-demo [--workers N] [--requests N] [--count N]
//                              [--seed S] [--stats-json]
//                              [--connect ADDR[,ADDR...] | --directory FILE]
//                              [--pool N] [--auth-key KEY]
//   diffpattern_cli serve    --listen tcp:HOST:PORT|unix:/path [--name S]
//                            [--io-timeout-ms N] [--max-connections N]
//                            [--auth-key KEY] [--stats-json]
//
// All subcommands share one scaled pipeline configuration; `train` writes a
// checkpoint that `generate` reloads, and `generate` emits a pattern
// library that `evaluate`/`render` consume. Every subcommand accepts
// `--threads N` to size the tensor compute pool (default: the
// DIFFPATTERN_THREADS env var, else hardware concurrency). `generate
// --stream` prints every pattern (index + legality) the moment it clears
// legalization; `--stats` dumps the service counters after the run and
// `--stats-json` emits the same snapshot as machine-readable JSON. A flag
// the subcommand does not read is a usage error, never silently ignored.
// `serve-demo` spins up an in-process multi-worker serving plane (wire
// protocol + replica router) and proves cross-replica byte identity. Exit
// code 0 on success, 1 on usage errors, 2 on runtime failures.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/compute_pool.h"
#include "core/pipeline.h"
#include "dist/discovery.h"
#include "dist/router.h"
#include "dist/socket_transport.h"
#include "dist/transport.h"
#include "dist/worker_node.h"
#include "tensor/simd.h"
#include "drc/checker.h"
#include "io/gds.h"
#include "io/io.h"
#include "nn/checkpoint.h"
#include "unet/unet.h"

namespace dp = diffpattern;

namespace {

/// Malformed command line (vs runtime failure): caught in main, exits 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) {
      return fallback;
    }
    const std::string& text = it->second;
    std::int64_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      throw UsageError("invalid integer for --" + key + ": '" + text + "'");
    }
    return value;
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

int usage() {
  std::cout <<
      "diffpattern_cli — DiffPattern layout pattern generation\n\n"
      "  train    --out model.ckpt [--iters N] [--tiles N] [--seed S]\n"
      "  generate --model model.ckpt --out library.bin [--count N]\n"
      "           [--geometries N] [--rules normal|space|area] [--seed S]\n"
      "           [--stream] [--stats] [--priority N] [--deadline-ms N]\n"
      "           [--max-queue-depth N] [--steps N | --stride N]\n"
      "           [--stats-json] [--tiles N]\n"
      "  evaluate --library library.bin [--rules normal|space|area]\n"
      "  render   --library library.bin --out-dir DIR [--limit N]\n"
      "  export-gds --library library.bin --out patterns.gds [--layer N]\n"
      "  serve-demo [--workers N] [--requests N] [--count N] [--seed S]\n"
      "             [--stats-json] [--connect ADDR[,ADDR...] | --directory F]\n"
      "             [--call-timeout-ms N] [--connect-timeout-ms N]\n"
      "             [--pool N] [--auth-key KEY]\n"
      "  serve    --listen tcp:HOST:PORT|unix:/path [--name S]\n"
      "           [--io-timeout-ms N] [--max-connections N] [--auth-key KEY]\n"
      "           [--stats-json]\n\n"
      "Every subcommand accepts --threads N to size the compute pool used\n"
      "by the numeric kernels (default: DIFFPATTERN_THREADS env, else all\n"
      "hardware threads) and --kernel-backend scalar|avx2|auto to pin\n"
      "the SIMD dispatch (default: DIFFPATTERN_KERNEL_BACKEND env, else the\n"
      "best backend this CPU supports; unsupported ISAs are a usage error).\n"
      "Results are identical for every thread count and backend. Any other\n"
      "flag a subcommand does not list is an error.\n"
      "generate --stream prints each pattern (index + legality) as it is\n"
      "delivered; --stats dumps the service counters after the run and\n"
      "--stats-json emits the same snapshot as one JSON object.\n"
      "serve-demo runs an in-process multi-worker serving plane (replica\n"
      "router + wire protocol over loopback), checks that every replica\n"
      "answers the reference request with byte-identical patterns, and with\n"
      "--stats-json dumps router/worker counters as JSON. With --connect it\n"
      "routes over real sockets instead: each ADDR is a running `serve`\n"
      "worker, and byte identity is checked against a local golden model.\n"
      "--directory F discovers the workers from file F ('MODEL ADDRESS' per\n"
      "line) through the router's runtime-discovery seam instead; --pool N\n"
      "sizes each replica's connection pool and --auth-key KEY enables\n"
      "pre-shared-key frame authentication (must match the servers').\n"
      "Addresses accept tcp:HOST:PORT (hostname, IPv4, or [v6]) and\n"
      "unix:/path.\n"
      "serve runs one worker as a listening process (demo model, fixed\n"
      "weights); SIGINT/SIGTERM stops accepting, drains in-flight requests,\n"
      "then exits 0 (with a final counter dump under --stats-json).\n"
      "serve --max-connections caps concurrent connections (0 = unlimited)\n"
      "and --auth-key KEY requires authenticated frames from every peer.\n"
      "--priority ranks the request against concurrent service traffic,\n"
      "--deadline-ms bounds its latency (DEADLINE_EXCEEDED past it), and\n"
      "--max-queue-depth caps the service's per-model admission window\n"
      "(overload answers UNAVAILABLE/RESOURCE_EXHAUSTED + retry hint).\n"
      "generate --steps N targets N reverse-diffusion steps per topology\n"
      "(--stride N sets the step subsequence directly; mutually exclusive,\n"
      "both bounded by the schedule) — fewer steps trade sample quality\n"
      "for proportionally fewer U-Net evaluations.\n";
  return 1;
}

/// Applies --threads to the process-wide compute pool before any kernel
/// runs. 0 is rejected (a zero-thread pool cannot make progress).
void apply_thread_option(const Args& args) {
  if (!args.has("threads")) {
    return;
  }
  const auto requested = args.get_int("threads", -1);
  const auto status = dp::common::set_global_compute_threads(requested);
  if (!status.ok()) {
    throw UsageError("--threads: " + status.message());
  }
}

/// Applies --kernel-backend to the process-wide SIMD dispatch before any
/// kernel runs. Unknown names and ISAs this host cannot execute are usage
/// errors, mirroring the --threads 0 contract.
void apply_kernel_backend_option(const Args& args) {
  if (!args.has("kernel-backend")) {
    return;
  }
  const auto status =
      dp::tensor::set_kernel_backend_name(args.get("kernel-backend", ""));
  if (!status.ok()) {
    throw UsageError("--kernel-backend: " + status.message());
  }
}

dp::core::PipelineConfig cli_config(const Args& args) {
  dp::core::PipelineConfig cfg;
  cfg.datagen.quantum = 64;
  cfg.datagen.min_shapes = 4;
  cfg.datagen.max_shapes = 9;
  cfg.datagen.extend_probability = 0.5;
  cfg.dataset_tiles = args.get_int("tiles", 96);
  cfg.grid_side = 16;
  cfg.channels = 4;
  cfg.schedule.steps = 40;
  cfg.model_channels = 16;
  cfg.train_iterations = args.get_int("iters", 900);
  cfg.batch_size = 8;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2023));
  if (args.has("max-queue-depth")) {
    const auto depth = args.get_int("max-queue-depth", 0);
    if (depth < 1) {
      throw UsageError("--max-queue-depth must be >= 1, got " +
                       std::to_string(depth));
    }
    // One knob, coherent policy: the soft shed threshold follows the hard
    // cap (the service clamps shed_queue_depth into [1, max_queue_depth]).
    cfg.flow.max_queue_depth = depth;
  }
  return cfg;
}

dp::drc::DesignRules rules_by_name(const std::string& name) {
  if (name == "space") {
    return dp::drc::larger_space_rules();
  }
  if (name == "area") {
    return dp::drc::smaller_area_rules();
  }
  if (name == "normal") {
    return dp::drc::standard_rules();
  }
  throw UsageError("unknown rule deck: " + name +
                   " (expected normal|space|area)");
}

int cmd_train(const Args& args) {
  if (!args.has("out")) {
    std::cerr << "train: --out is required\n";
    return 1;
  }
  auto cfg = cli_config(args);
  dp::core::Pipeline pipeline(cfg);
  std::cout << "training for " << cfg.train_iterations << " iterations on "
            << cfg.dataset_tiles << " synthetic tiles...\n";
  pipeline.train([](std::int64_t it, const dp::diffusion::LossBreakdown& l) {
    if ((it + 1) % 100 == 0) {
      std::cout << "  iter " << (it + 1) << "  loss " << l.total << "\n";
    }
  });
  pipeline.save_model(args.get("out", ""));
  std::cout << "checkpoint written to " << args.get("out", "") << "\n";
  return 0;
}

int cmd_generate(const Args& args) {
  if (!args.has("model") || !args.has("out")) {
    std::cerr << "generate: --model and --out are required\n";
    return 1;
  }
  // Parse + validate every option (usage errors) before touching the
  // filesystem or paying for pipeline construction.
  auto cfg = cli_config(args);
  dp::service::GenerateRequest request;
  request.model = dp::core::Pipeline::kServiceModel;
  request.count = args.get_int("count", 64);
  request.geometries_per_topology = args.get_int("geometries", 1);
  request.rule_set = args.get("rules", "normal");
  request.seed = static_cast<std::uint64_t>(args.get_int("seed", 2023));
  const auto priority = args.get_int("priority", 0);
  if (priority < std::numeric_limits<std::int32_t>::min() ||
      priority > std::numeric_limits<std::int32_t>::max()) {
    throw UsageError("--priority out of range: " + std::to_string(priority));
  }
  request.priority = static_cast<std::int32_t>(priority);
  request.deadline_ms = args.get_int("deadline-ms", 0);
  if (request.deadline_ms < 0) {
    throw UsageError("--deadline-ms must be >= 0, got " +
                     std::to_string(request.deadline_ms));
  }
  if (args.has("steps") && args.has("stride")) {
    throw UsageError(
        "--steps and --stride are mutually exclusive (set at most one)");
  }
  if (args.has("steps")) {
    const auto steps = args.get_int("steps", 0);
    if (steps < 1) {
      throw UsageError("--steps must be >= 1, got " + std::to_string(steps));
    }
    if (steps > cfg.schedule.steps) {
      throw UsageError("--steps " + std::to_string(steps) +
                       " exceeds the schedule (" +
                       std::to_string(cfg.schedule.steps) + " steps)");
    }
    request.sampling.steps = steps;
  }
  if (args.has("stride")) {
    const auto stride = args.get_int("stride", 0);
    if (stride < 1) {
      throw UsageError("--stride must be >= 1, got " +
                       std::to_string(stride));
    }
    if (stride > cfg.schedule.steps) {
      throw UsageError("--stride " + std::to_string(stride) +
                       " exceeds the schedule (" +
                       std::to_string(cfg.schedule.steps) + " steps)");
    }
    request.sampling.stride = stride;
  }
  const auto checkpoint = args.get("model", "");
  if (!dp::nn::is_checkpoint_file(checkpoint)) {
    std::cerr << "generate: '" << checkpoint
              << "' is missing or not a checkpoint\n";
    return 1;
  }
  // The pipeline bootstraps the dataset (for the Solving-E delta library)
  // and registers the checkpoint with its PatternService; generation itself
  // is one typed request whose errors come back as Status codes.
  dp::core::Pipeline pipeline(cfg);
  pipeline.load_model(checkpoint);
  std::cout << "generating " << request.count << " topologies (x"
            << request.geometries_per_topology << " geometries, rules '"
            << request.rule_set << "', seed " << request.seed << ")"
            << (args.has("stream") ? ", streaming" : "") << "...\n";
  auto& service = pipeline.service();
  dp::service::GenerateResult result;
  if (args.has("stream")) {
    // Streamed delivery: print each topology the moment it clears (or is
    // rejected by) legalization, collecting everything for the library
    // write below. Delivery order varies with scheduling; the collected
    // set (and the library bytes, written in index order) do not.
    std::vector<dp::service::StreamedPattern> slots;
    auto stats = service.generate_stream(
        request, [&slots](const dp::service::StreamedPattern& pattern) {
          std::cout << "  pattern " << pattern.index << ": "
                    << (pattern.legal
                            ? "legal (" +
                                  std::to_string(pattern.patterns.size()) +
                                  " geometr" +
                                  (pattern.patterns.size() == 1 ? "y)"
                                                                : "ies)")
                        : pattern.prefiltered ? "pre-filtered"
                                              : "unsolvable")
                    << "\n";
          slots.push_back(pattern);
        });
    if (!stats.ok()) {
      std::cerr << "generate: " << stats.status().to_string() << "\n";
      return stats.status().code() == dp::common::StatusCode::kInternal ? 2
                                                                        : 1;
    }
    result.stats = std::move(stats).value();
    result.patterns = dp::service::assemble_stream_patterns(std::move(slots));
  } else {
    auto generated = service.generate(request);
    if (!generated.ok()) {
      std::cerr << "generate: " << generated.status().to_string() << "\n";
      return generated.status().code() == dp::common::StatusCode::kInternal
                 ? 2
                 : 1;
    }
    result = std::move(generated).value();
  }
  if (result.stats.degraded) {
    std::cout << "note: admitted in degraded mode — "
              << result.stats.topologies_admitted << " of "
              << result.stats.topologies_requested
              << " topologies ran (service overloaded)\n";
  }
  if (result.stats.sampling_stride > 1) {
    std::cout << "sampling stride " << result.stats.sampling_stride << ": "
              << result.stats.steps_run << " reverse steps per topology from "
              << "step "
              << dp::diffusion::BinarySchedule(cfg.schedule).chain_start()
              << " of " << cfg.schedule.steps << " ("
              << result.stats.net_evals << " net evals)\n";
  }
  std::cout << "emitted " << result.patterns.size() << " legal patterns ("
            << result.stats.prefilter_rejected << " pre-filtered, "
            << result.stats.solver_rejected << " unsolvable)\n";
  dp::io::save_pattern_library(args.get("out", ""), result.patterns);
  std::cout << "library written to " << args.get("out", "") << "\n";
  if (args.has("stats")) {
    std::cout << service.counters().to_string();
  }
  if (args.has("stats-json")) {
    std::cout << service.counters().to_json() << "\n";
  }
  return 0;
}

int cmd_evaluate(const Args& args) {
  if (!args.has("library")) {
    std::cerr << "evaluate: --library is required\n";
    return 1;
  }
  // The deck first: a typo in --rules is a usage error whatever the
  // library holds.
  const auto rules = rules_by_name(args.get("rules", "normal"));
  const auto patterns =
      dp::io::load_pattern_library(args.get("library", ""));
  const auto eval = dp::core::evaluate_patterns(patterns, rules);
  std::cout << "patterns:        " << eval.total_patterns << "\n"
            << "legal:           " << eval.legal_patterns << " ("
            << eval.legality_ratio() * 100.0 << "%)\n"
            << "diversity:       " << eval.diversity << " bits\n"
            << "legal diversity: " << eval.legal_diversity << " bits\n";
  return 0;
}

int cmd_render(const Args& args) {
  if (!args.has("library") || !args.has("out-dir")) {
    std::cerr << "render: --library and --out-dir are required\n";
    return 1;
  }
  const auto patterns =
      dp::io::load_pattern_library(args.get("library", ""));
  const auto dir = dp::io::ensure_directory(args.get("out-dir", ""));
  const auto limit =
      std::min<std::int64_t>(args.get_int("limit", 16),
                             static_cast<std::int64_t>(patterns.size()));
  for (std::int64_t i = 0; i < limit; ++i) {
    dp::io::write_pattern_pgm(
        dir + "/pattern_" + std::to_string(i) + ".pgm",
        patterns[static_cast<std::size_t>(i)], 256);
  }
  std::cout << "rendered " << limit << " patterns to " << dir << "\n";
  return 0;
}

/// The demo serving model: small and untrained, built from a FIXED weights
/// seed (7) so every process constructing it — `serve` workers on separate
/// hosts, `serve-demo` replicas, the local golden — is weight-identical
/// the way checkpoint replicas would be.
dp::service::ModelConfig demo_model_config() {
  dp::service::ModelConfig model_cfg;
  model_cfg.grid_side = 16;
  model_cfg.channels = 4;
  model_cfg.schedule = {.steps = 6, .beta_start = 0.01, .beta_end = 0.5};
  model_cfg.model_channels = 8;
  model_cfg.channel_mult = {1, 2};
  model_cfg.num_res_blocks = 1;
  model_cfg.attention_levels = {};
  model_cfg.dropout = 0.0F;
  return model_cfg;
}

constexpr std::uint64_t kDemoWeightsSeed = 7;
constexpr const char* kDemoModelName = "demo";

/// Socket-client mode of serve-demo: each --connect address is a running
/// `serve` worker (or, with --directory, the worker set is discovered from
/// a 'MODEL ADDRESS' file through the router's runtime-discovery seam);
/// the router fails over between them over real sockets, and byte identity
/// is proven against a local golden built from the same demo model.
/// Returns 0 on identity, 2 otherwise.
int serve_demo_connect(const Args& args, std::int64_t requests,
                       std::int64_t count, std::uint64_t seed) {
  dp::dist::SocketTransportConfig transport_cfg;
  transport_cfg.call_timeout_ms = args.get_int("call-timeout-ms", 10000);
  transport_cfg.connect_timeout_ms = args.get_int("connect-timeout-ms", 1000);
  transport_cfg.jitter_seed = seed;
  const auto pool = args.get_int("pool", 4);
  if (pool < 1 || pool > 64) {
    throw UsageError("--pool must be in [1, 64], got " + std::to_string(pool));
  }
  transport_cfg.max_connections = pool;
  transport_cfg.auth_key = args.get("auth-key", "");
  dp::dist::SocketTransport transport(transport_cfg);
  dp::dist::RouterConfig router_cfg;
  router_cfg.seed = seed;
  dp::dist::ReplicaRouter router(router_cfg);

  std::int64_t replica_count = 0;
  if (args.has("directory")) {
    dp::dist::FileWorkerDirectory directory(args.get("directory", ""));
    const auto synced = router.sync_directory(
        directory,
        [&transport](const std::string& a) { return transport.connect(a); });
    if (!synced.ok()) {
      std::cerr << "serve-demo: --directory: " << synced.status().to_string()
                << "\n";
      return 2;
    }
    replica_count = synced->added;
    if (replica_count == 0) {
      std::cerr << "serve-demo: --directory lists no workers\n";
      return 2;
    }
  } else {
    std::vector<std::string> addresses;
    std::string list = args.get("connect", "");
    for (std::size_t start = 0; start <= list.size();) {
      const auto comma = list.find(',', start);
      const auto end = comma == std::string::npos ? list.size() : comma;
      if (end > start) {
        addresses.push_back(list.substr(start, end - start));
      }
      start = end + 1;
    }
    if (addresses.empty()) {
      throw UsageError("--connect needs at least one address");
    }
    for (const auto& address : addresses) {
      router.add_replica(kDemoModelName, transport.connect(address));
    }
    replica_count = static_cast<std::int64_t>(addresses.size());
  }

  std::cout << "serve-demo: routing over " << replica_count
            << " socket replicas, " << requests << " requests of " << count
            << " topologies...\n";
  std::int64_t ok_requests = 0;
  std::int64_t legal_patterns = 0;
  for (std::int64_t r = 0; r < requests; ++r) {
    dp::service::GenerateRequest request;
    request.model = kDemoModelName;
    request.count = count;
    request.seed = seed + static_cast<std::uint64_t>(r);
    auto result = router.generate(request);
    if (result.ok()) {
      ++ok_requests;
      legal_patterns += static_cast<std::int64_t>(result->patterns.size());
    } else {
      std::cerr << "  request " << r << ": " << result.status().to_string()
                << "\n";
    }
  }

  // Byte identity vs a local golden: the workers serve the same fixed
  // demo model, so routed bytes must equal a direct local generate.
  auto model_cfg = demo_model_config();
  const dp::unet::UNet weights(model_cfg.unet_config(), kDemoWeightsSeed);
  dp::dist::WorkerNode golden_node("local-golden");
  const auto registered = golden_node.service().models().register_model(
      kDemoModelName, model_cfg, weights.registry(), {});
  if (!registered.ok()) {
    std::cerr << "serve-demo: " << registered.to_string() << "\n";
    return 2;
  }
  dp::service::GenerateRequest reference;
  reference.model = kDemoModelName;
  reference.count = count;
  reference.seed = seed;
  auto golden = golden_node.service().generate(reference);
  auto routed = router.generate(reference);
  bool identical = golden.ok() && routed.ok();
  if (identical) {
    const auto& a = golden->patterns;
    const auto& b = routed->patterns;
    identical = a.size() == b.size();
    for (std::size_t i = 0; identical && i < a.size(); ++i) {
      identical = a[i].topology == b[i].topology && a[i].dx == b[i].dx &&
                  a[i].dy == b[i].dy;
    }
  } else if (!routed.ok()) {
    std::cerr << "serve-demo: reference request failed: "
              << routed.status().to_string() << "\n";
  }
  std::cout << "routed " << ok_requests << "/" << requests
            << " requests OK (" << legal_patterns << " legal patterns)\n"
            << "socket-vs-golden byte identity: "
            << (identical ? "PASS" : "FAIL") << "\n";
  if (args.has("stats-json")) {
    std::cout << "{\"router\":" + router.counters().to_json() + "}\n";
  }
  return identical ? 0 : 2;
}

/// In-process distributed-serving demo: N WorkerNodes behind a loopback
/// transport, each serving an identically seeded (untrained) mini model,
/// fronted by a load-aware ReplicaRouter. Drives a batch of requests
/// through the router, then proves the determinism contract by asking
/// every replica directly for the same (model, seed) request and
/// byte-comparing the answers. --stats-json dumps router + per-worker
/// counters as one JSON object. With --connect, routes to running `serve`
/// processes over sockets instead (see serve_demo_connect).
int cmd_serve_demo(const Args& args) {
  const auto worker_count = args.get_int("workers", 3);
  if (worker_count < 1 || worker_count > 64) {
    throw UsageError("--workers must be in [1, 64], got " +
                     std::to_string(worker_count));
  }
  const auto requests = args.get_int("requests", 8);
  if (requests < 0) {
    throw UsageError("--requests must be >= 0");
  }
  const auto count = args.get_int("count", 4);
  if (count < 1) {
    throw UsageError("--count must be >= 1");
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2023));
  if (args.has("connect") || args.has("directory")) {
    return serve_demo_connect(args, requests, count, seed);
  }

  auto model_cfg = demo_model_config();
  const dp::unet::UNet weights(model_cfg.unet_config(), kDemoWeightsSeed);

  dp::dist::LoopbackTransport transport;
  std::vector<std::unique_ptr<dp::dist::WorkerNode>> workers;
  dp::dist::RouterConfig router_cfg;
  router_cfg.seed = seed;
  dp::dist::ReplicaRouter router(router_cfg);
  const std::string model_name = "demo";
  for (std::int64_t w = 0; w < worker_count; ++w) {
    dp::service::ServiceConfig svc;
    svc.legalize_workers = 2;
    svc.max_fused_batch = 8;
    auto node = std::make_unique<dp::dist::WorkerNode>(
        "worker-" + std::to_string(w), transport, svc);
    const auto registered = node->service().models().register_model(
        model_name, model_cfg, weights.registry(), {});
    if (!registered.ok()) {
      std::cerr << "serve-demo: " << registered.to_string() << "\n";
      return 2;
    }
    router.add_replica(model_name, transport.connect(node->name()));
    workers.push_back(std::move(node));
  }

  std::cout << "serve-demo: " << worker_count << " workers, " << requests
            << " routed requests of " << count << " topologies...\n";
  std::int64_t ok_requests = 0;
  std::int64_t legal_patterns = 0;
  for (std::int64_t r = 0; r < requests; ++r) {
    dp::service::GenerateRequest request;
    request.model = model_name;
    request.count = count;
    request.seed = seed + static_cast<std::uint64_t>(r);
    auto result = router.generate(request);
    if (result.ok()) {
      ++ok_requests;
      legal_patterns += static_cast<std::int64_t>(result->patterns.size());
    } else {
      std::cerr << "  request " << r << ": "
                << result.status().to_string() << "\n";
    }
  }

  // Determinism across replicas: every worker must answer the reference
  // request with byte-identical patterns.
  dp::service::GenerateRequest reference;
  reference.model = model_name;
  reference.count = count;
  reference.seed = seed;
  std::vector<dp::layout::SquishPattern> golden;
  bool identical = true;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    auto result = workers[w]->service().generate(reference);
    if (!result.ok()) {
      std::cerr << "serve-demo: replica check failed on worker " << w << ": "
                << result.status().to_string() << "\n";
      return 2;
    }
    if (w == 0) {
      golden = std::move(result).value().patterns;
      continue;
    }
    const auto& mine = result->patterns;
    bool same = mine.size() == golden.size();
    for (std::size_t i = 0; same && i < mine.size(); ++i) {
      same = mine[i].topology == golden[i].topology &&
             mine[i].dx == golden[i].dx && mine[i].dy == golden[i].dy;
    }
    identical = identical && same;
  }
  std::cout << "routed " << ok_requests << "/" << requests
            << " requests OK (" << legal_patterns << " legal patterns)\n"
            << "cross-replica byte identity: "
            << (identical ? "PASS" : "FAIL") << "\n";

  if (args.has("stats-json")) {
    std::string json = "{\"router\":" + router.counters().to_json();
    json += ",\"workers\":[";
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (w > 0) {
        json += ",";
      }
      json += "{\"name\":\"" + workers[w]->name() + "\"";
      json += ",\"wire\":" + workers[w]->wire_counters().to_json();
      json += ",\"service\":" + workers[w]->service().counters().to_json();
      json += "}";
    }
    json += "]}";
    std::cout << json << "\n";
  }
  return identical ? 0 : 2;
}

/// Set by the SIGINT/SIGTERM handler; cmd_serve's wait loop polls it.
std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) {
  g_serve_stop.store(true, std::memory_order_relaxed);
}

/// Long-running worker process: one WorkerNode serving the demo model on a
/// real listening socket. SIGINT/SIGTERM triggers a graceful drain — the
/// listener closes, in-flight requests complete and answer, then the
/// process exits 0, dumping final counters under --stats-json.
int cmd_serve(const Args& args) {
  const std::string listen = args.get("listen", "");
  if (listen.empty()) {
    throw UsageError(
        "serve: --listen tcp:HOST:PORT or unix:/path is required");
  }
  const std::string name = args.get("name", "worker-0");
  const auto io_timeout = args.get_int("io-timeout-ms", 10000);
  if (io_timeout < 1) {
    throw UsageError("--io-timeout-ms must be >= 1");
  }
  const auto max_connections = args.get_int("max-connections", 256);
  if (max_connections < 0) {
    throw UsageError("--max-connections must be >= 0 (0 = unlimited)");
  }

  auto model_cfg = demo_model_config();
  const dp::unet::UNet weights(model_cfg.unet_config(), kDemoWeightsSeed);
  dp::service::ServiceConfig svc;
  svc.legalize_workers = 2;
  svc.max_fused_batch = 8;
  dp::dist::WorkerNode node(name, svc);
  const auto registered = node.service().models().register_model(
      kDemoModelName, model_cfg, weights.registry(), {});
  if (!registered.ok()) {
    std::cerr << "serve: " << registered.to_string() << "\n";
    return 2;
  }

  dp::dist::SocketServerConfig server_cfg;
  server_cfg.io_timeout_ms = io_timeout;
  server_cfg.max_connections = max_connections;
  server_cfg.auth_key = args.get("auth-key", "");
  dp::dist::SocketServer server(server_cfg);
  const auto started = server.start(
      listen, [&node](const dp::dist::Bytes& request) {
        return node.handle(request);
      });
  if (!started.ok()) {
    std::cerr << "serve: " << started.to_string() << "\n";
    return 2;
  }
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::cout << "serving model '" << kDemoModelName << "' as '" << name
            << "' on " << server.bound_address()
            << " (SIGINT/SIGTERM to drain and exit)" << std::endl;
  while (!g_serve_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "serve: draining in-flight requests..." << std::endl;
  server.shutdown();
  if (args.has("stats-json")) {
    std::string json = "{\"server\":" + server.counters().to_json();
    json += ",\"wire\":" + node.wire_counters().to_json();
    json += ",\"service\":" + node.service().counters().to_json();
    json += "}";
    std::cout << json << std::endl;
  }
  std::cout << "serve: drained, exiting" << std::endl;
  return 0;
}

int cmd_export_gds(const Args& args) {
  if (!args.has("library") || !args.has("out")) {
    std::cerr << "export-gds: --library and --out are required\n";
    return 1;
  }
  const auto patterns =
      dp::io::load_pattern_library(args.get("library", ""));
  dp::io::write_pattern_library_gds(
      args.get("out", ""), patterns,
      static_cast<std::int16_t>(args.get_int("layer", 1)));
  std::cout << "wrote " << patterns.size() << " structures to "
            << args.get("out", "") << " (GDSII, 1 nm database unit)\n";
  return 0;
}

/// One subcommand: its handler and every flag it reads. The process-wide
/// compute flags (--threads, --kernel-backend) are accepted by all.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string> flags;
};

const Command kCommands[] = {
    {"train", cmd_train, {"out", "iters", "tiles", "seed"}},
    {"generate",
     cmd_generate,
     {"model", "out", "count", "geometries", "rules", "seed", "tiles",
      "stream", "stats", "stats-json", "priority", "deadline-ms",
      "max-queue-depth", "steps", "stride"}},
    {"evaluate", cmd_evaluate, {"library", "rules"}},
    {"render", cmd_render, {"library", "out-dir", "limit"}},
    {"export-gds", cmd_export_gds, {"library", "out", "layer"}},
    {"serve-demo",
     cmd_serve_demo,
     {"workers", "requests", "count", "seed", "stats-json", "connect",
      "directory", "call-timeout-ms", "connect-timeout-ms", "pool",
      "auth-key"}},
    {"serve",
     cmd_serve,
     {"listen", "name", "io-timeout-ms", "max-connections", "auth-key",
      "stats-json"}},
};

/// Rejects every flag `command` does not read: a misspelled option must
/// not be ignored without a word.
void check_flags(const Command& command, const Args& args) {
  for (const auto& [key, value] : args.options) {
    const bool known =
        key == "threads" || key == "kernel-backend" ||
        std::find(command.flags.begin(), command.flags.end(), key) !=
            command.flags.end();
    if (!known) {
      throw UsageError(std::string(command.name) + ": unknown flag --" + key);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string name = argv[1];
  const auto command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&name](const Command& c) { return name == c.name; });
  if (command == std::end(kCommands)) {
    return usage();
  }
  Args args;
  // Options are --key value pairs; a --key followed by another option (or
  // the end of the line) is a boolean flag, e.g. --stream / --stats.
  for (int i = 2; i < argc;) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "expected --option [value] arguments, got '" << key
                << "'\n";
      return 1;
    }
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[key.substr(2)] = argv[i + 1];
      i += 2;
    } else {
      args.options[key.substr(2)] = "";
      i += 1;
    }
  }
  try {
    check_flags(*command, args);
    apply_thread_option(args);
    apply_kernel_backend_option(args);
    return command->run(args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
