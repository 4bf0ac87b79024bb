// Distributed routing: load-aware placement vs a round-robin control over
// a 3-worker x 2-model loopback topology with one deliberately saturated
// worker.
//
// worker-0 holds a parked push stream on model "alpha" (its callback
// blocks on its only delivery), pinning its admission window open for the
// whole bench — a deterministic stand-in for a hot replica. The same
// request storm is then routed twice through identical replica tables:
//   * round-robin (load-blind control): every third pick lands on the
//     saturated worker, whose alpha requests shed and must redirect;
//   * power-of-two-choices over reported health, refreshed every request:
//     the router reads worker-0's admission depth and steers around it.
// The claims measured: the load-aware policy encounters a strictly lower
// shed rate than round-robin, sends less traffic to the saturated worker,
// and — the standing invariant — every completed request's bytes are
// identical across policies, replicas, and redirects.
//
// A third phase re-runs the storm over REAL sockets: the same workers
// behind TCP SocketServers and seeded FaultInjector proxies (2 ms added
// latency everywhere, worker-0 partitioned mid-storm), measuring the
// socket p99 against the loopback baseline and proving failover keeps
// every request completing with bit-identical bytes.
// Emits BENCH_router.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "dist/router.h"
#include "dist/socket_transport.h"
#include "dist/transport.h"
#include "dist/worker_node.h"
#include "service/pattern_service.h"
#include "support/fault_injection.h"
#include "unet/unet.h"

namespace dp = diffpattern;
namespace dd = diffpattern::dist;
namespace ds = diffpattern::service;

namespace {

constexpr int kWorkers = 3;
constexpr int kRequestsPerPolicy = 30;  // Alternating alpha / beta.
const char* const kModels[] = {"alpha", "beta"};

/// The service tests' mini model: small enough that untrained sampling
/// keeps the whole bench in seconds (routing behavior, not model quality,
/// is what this bench measures).
ds::ModelConfig mini_model_config() {
  ds::ModelConfig cfg;
  cfg.grid_side = 16;
  cfg.channels = 4;
  cfg.schedule = {.steps = 6, .beta_start = 0.01, .beta_end = 0.5};
  cfg.model_channels = 8;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {};
  cfg.dropout = 0.0F;
  return cfg;
}

bool same_patterns(const std::vector<dp::layout::SquishPattern>& a,
                   const std::vector<dp::layout::SquishPattern>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].topology == b[i].topology && a[i].dx == b[i].dx &&
          a[i].dy == b[i].dy)) {
      return false;
    }
  }
  return true;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

bool wait_for(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

ds::GenerateRequest request_for(int index) {
  ds::GenerateRequest request;
  request.model = kModels[index % 2];
  request.count = 2;
  request.seed = 9000 + static_cast<std::uint64_t>(index);
  return request;
}

struct StormResult {
  std::vector<double> latencies;  // Seconds, completed requests.
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  dd::RouterCounters router;
  std::int64_t worker0_calls = 0;  // Generate frames that reached worker-0.
  std::vector<ds::GenerateResult> results;  // Indexed by request.
};

StormResult run_storm(dd::ReplicaRouter& router, dd::WorkerNode& worker0) {
  StormResult out;
  const std::int64_t calls_before = worker0.wire_counters().generate_calls;
  out.results.resize(kRequestsPerPolicy);
  for (int i = 0; i < kRequestsPerPolicy; ++i) {
    dp::common::Timer timer;
    auto result = router.generate(request_for(i));
    if (result.ok()) {
      out.latencies.push_back(timer.seconds());
      out.results[static_cast<std::size_t>(i)] = std::move(result).value();
      ++out.completed;
    } else {
      ++out.failed;
      std::cerr << "[bench] routed request " << i
                << " failed: " << result.status().to_string() << "\n";
    }
  }
  out.router = router.counters();
  out.worker0_calls = worker0.wire_counters().generate_calls - calls_before;
  return out;
}

}  // namespace

int main() {
  dp::bench::print_header(
      "Replica routing: load-aware placement vs round-robin over a "
      "saturated worker");

  // Shared trained-weights objects per model: every worker registers the
  // SAME weights, the precondition for cross-replica byte identity.
  const ds::ModelConfig model_cfg = mini_model_config();
  const dp::unet::UNet alpha_weights(model_cfg.unet_config(), /*seed=*/3);
  const dp::unet::UNet beta_weights(model_cfg.unet_config(), /*seed=*/4);

  dd::LoopbackTransport transport;
  std::vector<std::unique_ptr<dd::WorkerNode>> workers;
  for (int w = 0; w < kWorkers; ++w) {
    ds::ServiceConfig config;
    config.legalize_workers = 2;
    config.max_fused_batch = 8;
    if (w == 0) {
      // The to-be-saturated worker: shed as soon as one request is in
      // flight on a shard, so a parked stream pins the admission window.
      config.flow.max_queue_depth = 4;
      config.flow.shed_queue_depth = 1;
      config.flow.shed_fill_ratio = 0.0;
      config.flow.retry_after_ms = 10;
    } else {
      config.flow.max_queue_depth = 64;
      config.flow.shed_queue_depth = 64;
      config.flow.shed_fill_ratio = 0.0;
      config.flow.retry_after_ms = 10;
    }
    auto node = std::make_unique<dd::WorkerNode>(
        "worker-" + std::to_string(w), transport, config);
    for (const char* model : kModels) {
      const auto& weights =
          std::string(model) == "alpha" ? alpha_weights : beta_weights;
      const auto status = node->service().models().register_model(
          model, model_cfg, weights.registry(), {});
      if (!status.ok()) {
        std::cerr << "[bench] model registration failed: "
                  << status.to_string() << "\n";
        return 1;
      }
    }
    workers.push_back(std::move(node));
  }

  // Saturate worker-0: a push stream whose callback blocks on its first
  // delivery holds the request, and with it the admission slot, until the
  // bench fulfils `release` — overload that lasts exactly as long as the
  // bench wants it to. count=1 on purpose: deliveries are serialized, so
  // a second slot would block the other legalize worker behind the parked
  // callback too, and requests admitted to worker-0 could not progress.
  ds::GenerateRequest parked_request;
  parked_request.model = "alpha";
  parked_request.count = 1;
  parked_request.seed = 1;
  std::atomic<bool> parked{false};
  std::promise<void> release;
  std::future<void> released = release.get_future();
  std::thread parker([&] {
    const auto stats = workers[0]->service().generate_stream(
        parked_request, [&](const ds::StreamedPattern&) {
          parked.store(true);
          released.wait();
        });
    if (!stats.ok()) {
      std::cerr << "[bench] parked stream failed: "
                << stats.status().to_string() << "\n";
    }
  });
  const auto unpark = [&] {
    release.set_value();
    parker.join();
  };
  if (!wait_for([&] {
        return parked.load() &&
               workers[0]->service().counters().admission_pending >= 1;
      })) {
    std::cerr << "[bench] worker-0 never saturated\n";
    unpark();
    return 1;
  }
  std::cout << "[bench] worker-0 saturated (admission window held by a "
               "parked stream); storming "
            << kRequestsPerPolicy << " requests per policy over " << kWorkers
            << " workers x 2 models...\n";

  // Control arm: round-robin, load-blind.
  dd::RouterConfig rr_config;
  rr_config.policy = dd::RouterConfig::Policy::kRoundRobin;
  rr_config.health_refresh_every = 0;
  dd::ReplicaRouter rr_router(rr_config);
  // Treatment arm: power-of-two-choices with health refreshed per request.
  dd::RouterConfig la_config;
  la_config.policy = dd::RouterConfig::Policy::kLoadAware;
  la_config.seed = 17;
  la_config.health_refresh_every = 1;
  dd::ReplicaRouter la_router(la_config);
  for (auto& node : workers) {
    for (const char* model : kModels) {
      rr_router.add_replica(model, transport.connect(node->name()));
      la_router.add_replica(model, transport.connect(node->name()));
    }
  }

  const StormResult rr = run_storm(rr_router, *workers[0]);
  const StormResult la = run_storm(la_router, *workers[0]);

  // Release the saturated worker, then verify bit-identity: every request,
  // under either policy, must match a direct unloaded run on worker-1's
  // service (identical weights, no wire).
  unpark();  // The parked stream completes and frees its admission slot.
  bool identical = true;
  for (int i = 0; i < kRequestsPerPolicy && identical; ++i) {
    const auto golden = workers[1]->service().generate(request_for(i));
    identical = golden.ok() &&
                same_patterns(golden->patterns,
                              rr.results[static_cast<std::size_t>(i)].patterns) &&
                same_patterns(golden->patterns,
                              la.results[static_cast<std::size_t>(i)].patterns);
  }

  // ---- Socket phase: same workers, now behind real TCP servers with a
  // seeded FaultInjector per worker (2 ms added latency; worker-0's link
  // partitioned halfway through the storm). Routed load-aware over the
  // SocketTransport; failover must keep every request completing.
  std::vector<std::unique_ptr<dd::SocketServer>> servers;
  std::vector<std::unique_ptr<dd::FaultInjector>> injectors;
  dd::SocketTransportConfig socket_cfg;
  socket_cfg.call_timeout_ms = 5000;
  socket_cfg.backoff_base_ms = 1;
  socket_cfg.backoff_max_ms = 20;
  dd::SocketTransport socket_transport(socket_cfg);
  dd::RouterConfig socket_router_cfg;
  socket_router_cfg.policy = dd::RouterConfig::Policy::kLoadAware;
  socket_router_cfg.seed = 17;
  socket_router_cfg.health_refresh_every = 8;
  dd::ReplicaRouter socket_router(socket_router_cfg);
  for (int w = 0; w < kWorkers; ++w) {
    auto server = std::make_unique<dd::SocketServer>();
    dd::WorkerNode* node = workers[static_cast<std::size_t>(w)].get();
    auto started = server->start("tcp:127.0.0.1:0",
                                 [node](const dd::Bytes& request) {
                                   return node->handle(request);
                                 });
    dd::FaultConfig faults;
    faults.seed = 90 + static_cast<std::uint64_t>(w);
    faults.latency_ms = 2;
    auto injector = std::make_unique<dd::FaultInjector>(faults);
    auto injector_started =
        started.ok()
            ? injector->start("tcp:127.0.0.1:0", server->bound_address())
            : started;
    if (!injector_started.ok()) {
      std::cerr << "[bench] socket topology failed to start: "
                << injector_started.to_string() << "\n";
      return 1;
    }
    for (const char* model : kModels) {
      socket_router.add_replica(model,
                                socket_transport.connect(injector->address()));
    }
    servers.push_back(std::move(server));
    injectors.push_back(std::move(injector));
  }

  std::cout << "[bench] socket phase: " << kRequestsPerPolicy
            << " requests over TCP with 2 ms injected latency, worker-0 "
               "partitioned mid-storm...\n";
  StormResult sk;
  sk.results.resize(kRequestsPerPolicy);
  std::vector<bool> socket_done(kRequestsPerPolicy, false);
  for (int i = 0; i < kRequestsPerPolicy; ++i) {
    if (i == kRequestsPerPolicy / 2) {
      injectors[0]->set_partitioned(true);  // Mid-storm network split.
    }
    dp::common::Timer timer;
    auto result = socket_router.generate(request_for(i));
    if (result.ok()) {
      sk.latencies.push_back(timer.seconds());
      sk.results[static_cast<std::size_t>(i)] = std::move(result).value();
      socket_done[static_cast<std::size_t>(i)] = true;
      ++sk.completed;
    } else {
      ++sk.failed;
      std::cerr << "[bench] socket request " << i
                << " failed: " << result.status().to_string() << "\n";
    }
  }
  sk.router = socket_router.counters();
  injectors[0]->set_partitioned(false);
  for (auto& injector : injectors) {
    injector->shutdown();
  }
  for (auto& server : servers) {
    server->shutdown();
  }

  bool socket_identical = true;
  for (int i = 0; i < kRequestsPerPolicy && socket_identical; ++i) {
    if (!socket_done[static_cast<std::size_t>(i)]) {
      continue;  // Only completed requests owe identity.
    }
    const auto golden = workers[1]->service().generate(request_for(i));
    socket_identical =
        golden.ok() &&
        same_patterns(golden->patterns,
                      sk.results[static_cast<std::size_t>(i)].patterns);
  }

  // ---- Pool phase: the same exchange, serialized (max_connections = 1,
  // the pre-pool behavior) vs pooled (max_connections = 8), against one
  // server whose handler holds each request for a fixed 5 ms. Eight
  // concurrent callers: serialized they queue behind one fd, pooled they
  // overlap on separate connections. Echoed bytes are compared so the
  // pool's correctness (bytes identical by construction) rides along with
  // its latency claim.
  constexpr int kPoolThreads = 8;
  constexpr int kPoolCallsPerThread = 6;
  dd::SocketServer echo_server;
  const auto echo_started = echo_server.start(
      "tcp:127.0.0.1:0", [](const dd::Bytes& request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return request;
      });
  if (!echo_started.ok()) {
    std::cerr << "[bench] pool phase server failed to start: "
              << echo_started.to_string() << "\n";
    return 1;
  }
  bool pool_bytes_identical = true;
  const auto run_pool_arm = [&](std::size_t max_connections) {
    dd::SocketTransportConfig pool_cfg;
    pool_cfg.max_connections = max_connections;
    pool_cfg.call_timeout_ms = 10000;
    dd::SocketTransport pool_transport(pool_cfg);
    auto channel = pool_transport.connect(echo_server.bound_address());
    std::vector<std::vector<double>> latencies(kPoolThreads);
    std::vector<std::thread> callers;
    std::atomic<int> failures{0};
    std::atomic<int> mismatches{0};
    for (int t = 0; t < kPoolThreads; ++t) {
      callers.emplace_back([&, t] {
        for (int i = 0; i < kPoolCallsPerThread; ++i) {
          dd::Bytes payload(64);
          for (std::size_t b = 0; b < payload.size(); ++b) {
            payload[b] = static_cast<std::uint8_t>(
                (t * 131 + i * 17 + static_cast<int>(b)) & 0xFF);
          }
          dp::common::Timer timer;
          auto response = channel->call(payload);
          if (!response.ok()) {
            failures.fetch_add(1);
          } else if (response.value() != payload) {
            mismatches.fetch_add(1);
          } else {
            latencies[static_cast<std::size_t>(t)].push_back(timer.seconds());
          }
        }
      });
    }
    for (auto& caller : callers) {
      caller.join();
    }
    if (failures.load() > 0 || mismatches.load() > 0) {
      pool_bytes_identical = pool_bytes_identical && mismatches.load() == 0;
      std::cerr << "[bench] pool arm (max_connections=" << max_connections
                << "): " << failures.load() << " failures, "
                << mismatches.load() << " byte mismatches\n";
    }
    std::vector<double> all;
    for (const auto& thread_latencies : latencies) {
      all.insert(all.end(), thread_latencies.begin(), thread_latencies.end());
    }
    return all;
  };
  std::cout << "[bench] pool phase: " << kPoolThreads << " threads x "
            << kPoolCallsPerThread
            << " calls against a 5 ms handler, serialized vs pooled...\n";
  const auto serialized_latencies = run_pool_arm(1);
  const auto pooled_latencies = run_pool_arm(8);
  echo_server.shutdown();
  const double pool_serialized_p99 =
      percentile(serialized_latencies, 0.99) * 1000.0;
  const double pool_pooled_p99 = percentile(pooled_latencies, 0.99) * 1000.0;
  const bool pooled_wins = pool_pooled_p99 < pool_serialized_p99;
  const bool pool_survived =
      pooled_wins && pool_bytes_identical &&
      serialized_latencies.size() ==
          static_cast<std::size_t>(kPoolThreads * kPoolCallsPerThread) &&
      pooled_latencies.size() ==
          static_cast<std::size_t>(kPoolThreads * kPoolCallsPerThread);

  const auto shed_rate = [](const StormResult& s) {
    return s.router.requests > 0
               ? static_cast<double>(s.router.redirects + s.router.sheds_returned) /
                     static_cast<double>(s.router.requests)
               : 0.0;
  };
  const double rr_shed_rate = shed_rate(rr);
  const double la_shed_rate = shed_rate(la);
  const double sk_shed_rate = shed_rate(sk);
  const double rr_p50 = percentile(rr.latencies, 0.50) * 1000.0;
  const double rr_p99 = percentile(rr.latencies, 0.99) * 1000.0;
  const double la_p50 = percentile(la.latencies, 0.50) * 1000.0;
  const double la_p99 = percentile(la.latencies, 0.99) * 1000.0;
  const double sk_p50 = percentile(sk.latencies, 0.50) * 1000.0;
  const double sk_p99 = percentile(sk.latencies, 0.99) * 1000.0;
  const bool all_completed = rr.failed == 0 && la.failed == 0;
  const bool load_aware_wins = la_shed_rate < rr_shed_rate;
  // The partition must surface as a typed failure SOMEWHERE — a routed
  // call failing over or a health probe marking the replica down — and
  // the plane must absorb it: every socket request still completed.
  const bool partition_observed =
      sk.router.failovers + sk.router.health_failures >= 1;
  const bool socket_survived =
      sk.failed == 0 && partition_observed && socket_identical;

  std::cout << "\n                         round-robin    load-aware\n"
            << "completed:               " << rr.completed << " / "
            << kRequestsPerPolicy << "        " << la.completed << " / "
            << kRequestsPerPolicy << "\n"
            << "shed encounters:         " << rr.router.redirects << "   "
            << "        " << la.router.redirects << "\n"
            << "shed rate:               " << rr_shed_rate << "       "
            << la_shed_rate << "\n"
            << "worker-0 generate calls: " << rr.worker0_calls << "  "
            << "        " << la.worker0_calls << "\n"
            << "latency p50 / p99 (ms):  " << rr_p50 << " / " << rr_p99
            << "    " << la_p50 << " / " << la_p99 << "\n"
            << "bit-identical bytes:     " << (identical ? "yes" : "NO")
            << "\n"
            << "load-aware < round-robin shed rate: "
            << (load_aware_wins ? "yes" : "NO") << "\n"
            << "\nsocket phase (TCP + fault injection, partition mid-storm)\n"
            << "completed:               " << sk.completed << " / "
            << kRequestsPerPolicy << "\n"
            << "shed rate:               " << sk_shed_rate << "\n"
            << "failovers:               " << sk.router.failovers
            << " (timeouts " << sk.router.transport_timeouts << ", errors "
            << sk.router.transport_errors << ", decode "
            << sk.router.decode_failures << ")\n"
            << "reconnects:              " << sk.router.reconnects << "\n"
            << "latency p50 / p99 (ms):  " << sk_p50 << " / " << sk_p99
            << "  (loopback load-aware p99 " << la_p99 << ")\n"
            << "bit-identical bytes:     "
            << (socket_identical ? "yes" : "NO") << "\n"
            << "\npool phase (8 concurrent callers, 5 ms handler)\n"
            << "serialized p99 (ms):     " << pool_serialized_p99 << "\n"
            << "pooled p99 (ms):         " << pool_pooled_p99 << "\n"
            << "pooled < serialized:     " << (pooled_wins ? "yes" : "NO")
            << "\n"
            << "echoed bytes identical:  "
            << (pool_bytes_identical ? "yes" : "NO") << "\n";

  dp::bench::write_bench_json(
      "router",
      {{"workers", static_cast<double>(kWorkers)},
       {"models", 2.0},
       {"requests_per_policy", static_cast<double>(kRequestsPerPolicy)},
       {"round_robin_completed", static_cast<double>(rr.completed)},
       {"round_robin_shed_rate", rr_shed_rate},
       {"round_robin_redirects", static_cast<double>(rr.router.redirects)},
       {"round_robin_worker0_calls", static_cast<double>(rr.worker0_calls)},
       {"round_robin_p50_ms", rr_p50},
       {"round_robin_p99_ms", rr_p99},
       {"load_aware_completed", static_cast<double>(la.completed)},
       {"load_aware_shed_rate", la_shed_rate},
       {"load_aware_redirects", static_cast<double>(la.router.redirects)},
       {"load_aware_worker0_calls", static_cast<double>(la.worker0_calls)},
       {"load_aware_p50_ms", la_p50},
       {"load_aware_p99_ms", la_p99},
       {"load_aware_beats_round_robin", load_aware_wins ? 1.0 : 0.0},
       {"bit_identical", identical ? 1.0 : 0.0},
       {"socket_completed", static_cast<double>(sk.completed)},
       {"socket_shed_rate", sk_shed_rate},
       {"socket_failovers", static_cast<double>(sk.router.failovers)},
       {"socket_transport_timeouts",
        static_cast<double>(sk.router.transport_timeouts)},
       {"socket_transport_errors",
        static_cast<double>(sk.router.transport_errors)},
       {"socket_decode_failures",
        static_cast<double>(sk.router.decode_failures)},
       {"socket_reconnects", static_cast<double>(sk.router.reconnects)},
       {"socket_p50_ms", sk_p50},
       {"socket_p99_ms", sk_p99},
       {"socket_vs_loopback_p99_ratio",
        la_p99 > 0.0 ? sk_p99 / la_p99 : 0.0},
       {"socket_bit_identical", socket_identical ? 1.0 : 0.0},
       {"pool_serialized_p99_ms", pool_serialized_p99},
       {"pool_pooled_p99_ms", pool_pooled_p99},
       {"pooled_beats_serialized", pooled_wins ? 1.0 : 0.0},
       {"pool_bytes_identical", pool_bytes_identical ? 1.0 : 0.0}});

  // Pass criteria: both loopback policies completed everything (redirects
  // absorb the sheds), the load-aware router encountered strictly fewer
  // sheds than the load-blind control, routing was invisible in the bytes,
  // the socket phase survived its partition — at least one typed
  // failover, zero failures, bytes still golden — and the pooled channel
  // beat the serialized one at p99 with every echo byte-identical.
  return (all_completed && load_aware_wins && identical && socket_survived &&
          pool_survived)
             ? 0
             : 1;
}
