// Chaos suite: a multi-worker SOCKET topology stormed through every
// injected fault class — added latency, connection refusal, stalls that
// trip the read deadline, mid-frame truncation, byte corruption, and
// partitions — behind seeded FaultInjector proxies so each run is
// reproducible. The invariant under test is the one that makes the serving
// plane trustworthy: every admitted request returns bytes identical to a
// direct PatternService call, and every fault surfaces as a typed status
// (DATA_LOSS / UNAVAILABLE / DEADLINE_EXCEEDED lineage), never a hang, a
// crash, or a silently wrong answer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <map>

#include "common/status.h"
#include "counter_test_util.h"
#include "dist/discovery.h"
#include "dist/router.h"
#include "dist/socket_transport.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "dist/worker_node.h"
#include "service_test_util.h"
#include "support/fault_injection.h"
#include "support/static_worker_directory.h"
#include "unet/unet.h"

namespace dd = diffpattern::dist;
namespace dc = diffpattern::common;
namespace ds = diffpattern::service;

namespace {

using ds::test::mini_model_config;
using ds::test::same_patterns;

/// Socket topology: N workers, each listening on its own TCP port behind
/// its own FaultInjector, fronted by a ReplicaRouter over SocketTransport
/// channels that dial the INJECTORS. A transport-free golden worker with
/// identical weights provides the direct-service reference bytes.
class ChaosFailoverTest : public ::testing::Test {
 protected:
  ChaosFailoverTest()
      : weights_(mini_model_config().unet_config(), /*seed=*/7),
        golden_("golden") {
    register_demo(golden_);
  }

  void register_demo(dd::WorkerNode& node) {
    ASSERT_TRUE(node.service()
                    .models()
                    .register_model("demo", mini_model_config(),
                                    weights_.registry(), {})
                    .ok());
  }

  /// Brings up `count` worker+injector pairs and a router whose channels
  /// carry `transport_cfg`. Injector i gets fault config `faults[i]`
  /// (reused cyclically when fewer configs than workers are given).
  void start_topology(int count,
                      const std::vector<dd::FaultConfig>& faults,
                      dd::SocketTransportConfig transport_cfg = {},
                      dd::RouterConfig router_cfg = {}) {
    transport_ = std::make_unique<dd::SocketTransport>(transport_cfg);
    router_ = std::make_unique<dd::ReplicaRouter>(router_cfg);
    for (int i = 0; i < count; ++i) {
      ds::ServiceConfig config;
      config.legalize_workers = 2;
      config.max_fused_batch = 8;
      auto node = std::make_unique<dd::WorkerNode>(
          "w" + std::to_string(i), config);
      register_demo(*node);
      auto server = std::make_unique<dd::SocketServer>();
      dd::WorkerNode* raw = node.get();
      ASSERT_TRUE(server
                      ->start("tcp:127.0.0.1:0",
                              [raw](const dd::Bytes& request) {
                                return raw->handle(request);
                              })
                      .ok());
      auto injector = std::make_unique<dd::FaultInjector>(
          faults.empty() ? dd::FaultConfig{}
                         : faults[static_cast<std::size_t>(i) %
                                  faults.size()]);
      ASSERT_TRUE(
          injector->start("tcp:127.0.0.1:0", server->bound_address()).ok());
      router_->add_replica("demo", transport_->connect(injector->address()));
      workers_.push_back(std::move(node));
      servers_.push_back(std::move(server));
      injectors_.push_back(std::move(injector));
    }
  }

  void TearDown() override {
    // Injectors first: their upstream channels must die before servers.
    for (auto& injector : injectors_) {
      injector->shutdown();
    }
    for (auto& server : servers_) {
      server->shutdown();
    }
  }

  ds::GenerateRequest demo_request(std::uint64_t seed) {
    ds::GenerateRequest request;
    request.model = "demo";
    request.count = 2;
    request.seed = seed;
    return request;
  }

  /// Read deadline for a test whose stalled replica must trip it: `floor_ms`,
  /// or four times one clean direct call when that is longer. Sanitizer
  /// builds run the model about 20x slower (a clean call takes ~200 ms
  /// under TSan), so a fixed floor alone would also expire on the healthy
  /// replica; a stall (held for stall_max_ms, 60 s) trips either deadline.
  std::int64_t stall_deadline_ms(std::int64_t floor_ms) {
    const auto started = std::chrono::steady_clock::now();
    EXPECT_TRUE(golden_.service().generate(demo_request(0)).ok());
    const auto clean_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    return std::max<std::int64_t>(floor_ms, 4 * clean_ms);
  }

  /// Direct-service bytes for `seed` — the answer every routed success
  /// must match bit for bit.
  std::vector<diffpattern::layout::SquishPattern> golden_for(
      std::uint64_t seed) {
    auto result = golden_.service().generate(demo_request(seed));
    EXPECT_TRUE(result.ok());
    return result.ok() ? std::move(result).value().patterns
                       : std::vector<diffpattern::layout::SquishPattern>{};
  }

  diffpattern::unet::UNet weights_;
  dd::WorkerNode golden_;
  std::vector<std::unique_ptr<dd::WorkerNode>> workers_;
  std::vector<std::unique_ptr<dd::SocketServer>> servers_;
  std::vector<std::unique_ptr<dd::FaultInjector>> injectors_;
  std::unique_ptr<dd::SocketTransport> transport_;
  std::unique_ptr<dd::ReplicaRouter> router_;
};

dd::FaultConfig clean_faults(std::uint64_t seed = 1) {
  dd::FaultConfig config;
  config.seed = seed;
  return config;
}

TEST_F(ChaosFailoverTest, InjectedLatencyPreservesBytes) {
  auto slow = clean_faults(3);
  slow.latency_ms = 30;
  start_topology(2, {slow});
  auto routed = router_->generate(demo_request(11));
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_TRUE(same_patterns(routed->patterns, golden_for(11)));
  std::int64_t relayed = 0;
  for (const auto& injector : injectors_) {
    relayed += injector->counters().relayed;
  }
  EXPECT_GE(relayed, 1);
}

TEST_F(ChaosFailoverTest, RefusedReplicaFailsOverWithTypedCounter) {
  auto refusing = clean_faults(5);
  refusing.refuse_probability = 1.0;
  start_topology(2, {refusing, clean_faults(6)});
  auto routed = router_->generate(demo_request(13));
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_TRUE(same_patterns(routed->patterns, golden_for(13)));
  const auto counters = router_->counters();
  EXPECT_GE(counters.failovers, 1);
  EXPECT_GE(counters.transport_errors, 1);
  EXPECT_GE(injectors_[0]->counters().refused, 1);
}

TEST_F(ChaosFailoverTest, ResetAfterRequestFailsOver) {
  auto resetting = clean_faults(7);
  resetting.reset_probability = 1.0;
  start_topology(2, {resetting, clean_faults(8)});
  auto routed = router_->generate(demo_request(17));
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_TRUE(same_patterns(routed->patterns, golden_for(17)));
  EXPECT_GE(router_->counters().transport_errors, 1);
  EXPECT_GE(injectors_[0]->counters().resets, 1);
}

TEST_F(ChaosFailoverTest, StallTripsDeadlineAndFailsOver) {
  auto stalling = clean_faults(9);
  stalling.stall_probability = 1.0;
  dd::SocketTransportConfig transport_cfg;
  transport_cfg.call_timeout_ms = stall_deadline_ms(250);  // Trips fast.
  start_topology(2, {stalling, clean_faults(10)}, transport_cfg);
  const auto started = std::chrono::steady_clock::now();
  auto routed = router_->generate(demo_request(19));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count();
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_TRUE(same_patterns(routed->patterns, golden_for(19)));
  EXPECT_LT(elapsed, 10000);  // Deadline bounded the stall, not a hang.
  const auto counters = router_->counters();
  EXPECT_GE(counters.transport_timeouts, 1);
  EXPECT_GE(counters.failovers, 1);
  EXPECT_GE(injectors_[0]->counters().stalled, 1);
}

TEST_F(ChaosFailoverTest, TruncatedResponseIsDataLossThenFailover) {
  auto truncating = clean_faults(21);
  truncating.truncate_probability = 1.0;
  start_topology(2, {truncating, clean_faults(22)});
  auto routed = router_->generate(demo_request(23));
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_TRUE(same_patterns(routed->patterns, golden_for(23)));
  EXPECT_GE(router_->counters().decode_failures, 1);
  EXPECT_GE(injectors_[0]->counters().truncated, 1);
}

TEST_F(ChaosFailoverTest, CorruptedResponseNeverSurfacesAsWrongBytes) {
  auto corrupting = clean_faults(25);
  corrupting.corrupt_probability = 1.0;
  start_topology(2, {corrupting, clean_faults(26)});
  // The outer-frame checksum is the only thing between a flipped payload
  // byte and a silently wrong pattern: the corrupt replica must be read
  // as DATA_LOSS and the answer must come, bit-exact, from its peer.
  auto routed = router_->generate(demo_request(29));
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_TRUE(same_patterns(routed->patterns, golden_for(29)));
  EXPECT_GE(router_->counters().decode_failures, 1);
  EXPECT_GE(injectors_[0]->counters().corrupted, 1);
}

TEST_F(ChaosFailoverTest, PartitionHealsAfterRecovery) {
  dd::SocketTransportConfig transport_cfg;
  transport_cfg.call_timeout_ms = 2000;
  transport_cfg.backoff_base_ms = 1;
  transport_cfg.backoff_max_ms = 10;
  dd::RouterConfig router_cfg;
  router_cfg.health_refresh_every = 0;  // Probe explicitly below.
  start_topology(2, {clean_faults(31), clean_faults(32)}, transport_cfg,
                 router_cfg);
  injectors_[0]->set_partitioned(true);

  // Traffic survives the partition through the healthy replica.
  for (std::uint64_t seed = 41; seed < 44; ++seed) {
    auto routed = router_->generate(demo_request(seed));
    ASSERT_TRUE(routed.ok()) << routed.status().to_string();
    EXPECT_TRUE(same_patterns(routed->patterns, golden_for(seed)));
  }
  router_->refresh_health();
  EXPECT_EQ(router_->healthy_replicas("demo"), 1);

  injectors_[0]->set_partitioned(false);
  // Probes may land inside the channel's backoff window right after the
  // partition lifts; retry until the replica revives.
  bool healed = false;
  for (int attempt = 0; attempt < 100 && !healed; ++attempt) {
    router_->refresh_health();
    healed = router_->healthy_replicas("demo") == 2;
    if (!healed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(healed);
  auto routed = router_->generate(demo_request(47));
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_TRUE(same_patterns(routed->patterns, golden_for(47)));
}

TEST_F(ChaosFailoverTest, MixedFaultStormStaysTypedAndByteIdentical) {
  // Both replicas misbehave with every fault class at once; the run is
  // still deterministic for the fixed seeds. Two invariants survive the
  // storm: successes are bit-exact, failures are typed.
  dd::FaultConfig stormy = clean_faults(1234);
  stormy.latency_ms = 5;
  stormy.refuse_probability = 0.15;
  stormy.reset_probability = 0.10;
  stormy.corrupt_probability = 0.10;
  stormy.truncate_probability = 0.10;
  stormy.stall_probability = 0.10;
  dd::FaultConfig stormy2 = stormy;
  stormy2.seed = 5678;
  dd::SocketTransportConfig transport_cfg;
  transport_cfg.call_timeout_ms = stall_deadline_ms(300);  // Trips quickly.
  transport_cfg.backoff_base_ms = 1;
  transport_cfg.backoff_max_ms = 20;
  start_topology(2, {stormy, stormy2}, transport_cfg);

  const std::set<dc::StatusCode> typed = {
      dc::StatusCode::kUnavailable,
      dc::StatusCode::kResourceExhausted,
      dc::StatusCode::kDeadlineExceeded,
      dc::StatusCode::kDataLoss,
  };
  int successes = 0;
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    auto routed = router_->generate(demo_request(seed));
    if (routed.ok()) {
      ++successes;
      EXPECT_TRUE(same_patterns(routed->patterns, golden_for(seed)))
          << "seed " << seed << ": admitted bytes diverged from golden";
    } else {
      EXPECT_TRUE(typed.count(routed.status().code()) == 1)
          << "seed " << seed << ": untyped failure "
          << routed.status().to_string();
    }
  }
  EXPECT_GE(successes, 1);  // Failover keeps the plane serving.

  // Counter taxonomy: every failover is classified into exactly one
  // fault class, so the breakdown must sum back to the total.
  const auto counters = router_->counters();
  diffpattern::test::expect_failover_taxonomy(counters);
}

TEST_F(ChaosFailoverTest, WrongKeyReplicaRejectedTypedNeverWrongBytes) {
  // Auth chaos dials the workers DIRECTLY: the fault injector relays
  // plaintext frames, so a keyed stream cannot traverse it. Replica 0's
  // host is misconfigured with a stale key; the fleet key is "fleet-key".
  auto node0 = std::make_unique<dd::WorkerNode>("w0");
  auto node1 = std::make_unique<dd::WorkerNode>("w1");
  register_demo(*node0);
  register_demo(*node1);
  dd::SocketServerConfig stale_cfg;
  stale_cfg.auth_key = "fleet-key-ROTATED-OUT";
  auto server0 = std::make_unique<dd::SocketServer>(stale_cfg);
  dd::WorkerNode* raw0 = node0.get();
  ASSERT_TRUE(server0
                  ->start("tcp:127.0.0.1:0",
                          [raw0](const dd::Bytes& r) {
                            return raw0->handle(r);
                          })
                  .ok());
  dd::SocketServerConfig fleet_cfg;
  fleet_cfg.auth_key = "fleet-key";
  auto server1 = std::make_unique<dd::SocketServer>(fleet_cfg);
  dd::WorkerNode* raw1 = node1.get();
  ASSERT_TRUE(server1
                  ->start("tcp:127.0.0.1:0",
                          [raw1](const dd::Bytes& r) {
                            return raw1->handle(r);
                          })
                  .ok());

  dd::SocketTransportConfig transport_cfg;
  transport_cfg.auth_key = "fleet-key";
  transport_cfg.backoff_base_ms = 1;
  transport_cfg.backoff_max_ms = 10;
  dd::SocketTransport transport(transport_cfg);
  dd::RouterConfig router_cfg;
  router_cfg.health_refresh_every = 0;
  dd::ReplicaRouter router(router_cfg);
  router.add_replica("demo", transport.connect(server0->bound_address()));
  router.add_replica("demo", transport.connect(server1->bound_address()));

  // Whatever replica the router tries first, every request must land on
  // the good one with bytes identical to the golden — a wrong-key peer
  // surfaces as a typed failover, never as wrong output.
  for (std::uint64_t seed = 61; seed < 65; ++seed) {
    auto routed = router.generate(demo_request(seed));
    ASSERT_TRUE(routed.ok()) << routed.status().to_string();
    EXPECT_TRUE(same_patterns(routed->patterns, golden_for(seed)));
  }
  // A health sweep probes both: the stale-key replica fails its probe
  // (PERMISSION_DENIED at the frame layer) and is marked down.
  router.refresh_health();
  EXPECT_EQ(router.healthy_replicas("demo"), 1);
  EXPECT_GE(server0->counters().auth_failures, 1);
  // The rejection happened BEFORE any wire decode: the stale worker's
  // handler never saw a single frame.
  EXPECT_EQ(node0->wire_counters().calls, 0);
  const auto counters = router.counters();
  diffpattern::test::expect_failover_taxonomy(counters);
  server0->shutdown();
  server1->shutdown();
}

TEST_F(ChaosFailoverTest, PooledStormUnderResetsKeepsCounterTaxonomy) {
  auto resetting = clean_faults(77);
  resetting.reset_probability = 0.25;
  auto resetting2 = clean_faults(78);
  resetting2.reset_probability = 0.25;
  dd::SocketTransportConfig transport_cfg;
  transport_cfg.max_connections = 4;  // Pooled: callers overlap per replica.
  transport_cfg.call_timeout_ms = 5000;
  transport_cfg.backoff_base_ms = 1;
  transport_cfg.backoff_max_ms = 20;
  start_topology(2, {resetting, resetting2}, transport_cfg);

  // Goldens precomputed on this thread; storm threads only compare.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;
  std::map<std::uint64_t, std::vector<diffpattern::layout::SquishPattern>>
      goldens;
  for (std::uint64_t seed = 200;
       seed < 200 + kThreads * kPerThread; ++seed) {
    goldens[seed] = golden_for(seed);
  }
  const std::set<dc::StatusCode> typed = {
      dc::StatusCode::kUnavailable,
      dc::StatusCode::kResourceExhausted,
      dc::StatusCode::kDeadlineExceeded,
      dc::StatusCode::kDataLoss,
  };
  std::atomic<int> successes{0};
  std::atomic<int> wrong_bytes{0};
  std::atomic<int> untyped{0};
  std::vector<std::thread> stormers;
  for (int t = 0; t < kThreads; ++t) {
    stormers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto seed =
            static_cast<std::uint64_t>(200 + t * kPerThread + i);
        auto routed = router_->generate(demo_request(seed));
        if (routed.ok()) {
          successes.fetch_add(1);
          if (!same_patterns(routed->patterns, goldens[seed])) {
            wrong_bytes.fetch_add(1);
          }
        } else if (typed.count(routed.status().code()) == 0) {
          untyped.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : stormers) {
    t.join();
  }
  EXPECT_GE(successes.load(), 1);
  EXPECT_EQ(wrong_bytes.load(), 0);
  EXPECT_EQ(untyped.load(), 0);
  // The taxonomy survives concurrent pooled exchanges: every failover
  // still lands in exactly one fault-class bucket.
  const auto counters = router_->counters();
  diffpattern::test::expect_failover_taxonomy(counters);
}

TEST_F(ChaosFailoverTest, ReplicaJoinsMidStormWithoutRouterRestart) {
  // One replica serves alone; mid-storm a second one appears in the
  // worker directory and a sync_directory() call — no router restart —
  // brings it into rotation, serving byte-identically.
  auto node0 = std::make_unique<dd::WorkerNode>("w0");
  auto node1 = std::make_unique<dd::WorkerNode>("w1");
  register_demo(*node0);
  register_demo(*node1);
  auto server0 = std::make_unique<dd::SocketServer>();
  dd::WorkerNode* raw0 = node0.get();
  ASSERT_TRUE(server0
                  ->start("tcp:127.0.0.1:0",
                          [raw0](const dd::Bytes& r) {
                            return raw0->handle(r);
                          })
                  .ok());
  auto server1 = std::make_unique<dd::SocketServer>();
  dd::WorkerNode* raw1 = node1.get();
  ASSERT_TRUE(server1
                  ->start("tcp:127.0.0.1:0",
                          [raw1](const dd::Bytes& r) {
                            return raw1->handle(r);
                          })
                  .ok());

  dd::SocketTransport transport;
  dd::ReplicaRouter router;
  dd::StaticWorkerDirectory directory(std::vector<dd::WorkerEndpoint>{
      {"demo", server0->bound_address()}});
  auto connect = [&transport](const std::string& address) {
    return transport.connect(address);
  };
  ASSERT_TRUE(router.sync_directory(directory, connect).ok());
  ASSERT_EQ(router.healthy_replicas("demo"), 1);

  std::map<std::uint64_t, std::vector<diffpattern::layout::SquishPattern>>
      goldens;
  for (std::uint64_t seed = 300; seed < 316; ++seed) {
    goldens[seed] = golden_for(seed);
  }
  std::atomic<int> failures{0};
  std::atomic<int> wrong_bytes{0};
  std::atomic<bool> joined{false};
  std::thread storm([&] {
    for (std::uint64_t seed = 300; seed < 316; ++seed) {
      auto routed = router.generate(demo_request(seed));
      if (!routed.ok()) {
        failures.fetch_add(1);
      } else if (!same_patterns(routed->patterns, goldens[seed])) {
        wrong_bytes.fetch_add(1);
      }
      if (seed == 303) {
        // The join lands while requests are in flight.
        directory.add_endpoint({"demo", server1->bound_address()});
        auto synced = router.sync_directory(directory, connect);
        EXPECT_TRUE(synced.ok()) << synced.status().to_string();
        EXPECT_EQ(synced->added, 1);
        joined.store(true);
      }
    }
  });
  storm.join();
  ASSERT_TRUE(joined.load());
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_bytes.load(), 0);
  EXPECT_EQ(router.healthy_replicas("demo"), 2);
  EXPECT_EQ(router.counters().directory_adds, 2);

  // The joiner genuinely serves: keep routing until a request lands on it
  // (power-of-two placement reaches both replicas quickly).
  bool joiner_served = false;
  for (std::uint64_t seed = 400; seed < 460 && !joiner_served; ++seed) {
    auto routed = router.generate(demo_request(seed));
    ASSERT_TRUE(routed.ok()) << routed.status().to_string();
    joiner_served = node1->wire_counters().generate_calls > 0;
  }
  EXPECT_TRUE(joiner_served);
  server0->shutdown();
  server1->shutdown();
}

}  // namespace
