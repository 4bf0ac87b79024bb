// ReplicaRouter integration tests over the loopback transport: cross-replica
// byte determinism (including replay after injected failover), shed
// redirect with retry-hint cooldowns, load-aware placement against reported
// health, and streaming through the wire. The distributed plane inherits
// the service invariant: routing decides WHERE a request runs, never what
// it samples — the same (model, seed) yields identical bytes through any
// replica, any policy, any failover path.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "dist/router.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "dist/worker_node.h"
#include "service/admission.h"
#include "service/pattern_service.h"
#include "service_test_util.h"
#include "unet/unet.h"

namespace dd = diffpattern::dist;
namespace dc = diffpattern::common;
namespace ds = diffpattern::service;

namespace {

using ds::test::mini_model_config;
using ds::test::same_patterns;

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

ds::FlowControlConfig depth_only_flow(std::int64_t max_depth,
                                      std::int64_t shed_depth) {
  ds::FlowControlConfig flow;
  flow.max_queue_depth = max_depth;
  flow.shed_queue_depth = shed_depth;
  flow.shed_fill_ratio = 0.0;
  flow.retry_after_ms = 10;
  return flow;
}

/// Workers share one trained-weights object (seed 7), so every replica is
/// the same model — the precondition for cross-replica byte identity.
class DistRouterTest : public ::testing::Test {
 protected:
  DistRouterTest() : weights_(mini_model_config().unet_config(), /*seed=*/7) {}

  std::unique_ptr<dd::WorkerNode> make_worker(
      const std::string& name,
      const ds::FlowControlConfig& flow = depth_only_flow(64, 64)) {
    ds::ServiceConfig config;
    config.legalize_workers = 2;
    config.max_fused_batch = 8;
    config.flow = flow;
    auto node = std::make_unique<dd::WorkerNode>(name, transport_, config);
    EXPECT_TRUE(node->service()
                    .models()
                    .register_model("demo", mini_model_config(),
                                    weights_.registry(), {})
                    .ok());
    return node;
  }

  /// Registers a raw endpoint that sheds every generate with a hinted
  /// status and answers health probes as a healthy worker.
  void register_shedder(const std::string& name, std::int64_t hint_ms,
                        bool stream_shed = false) {
    transport_.register_endpoint(name, [hint_ms,
                                        stream_shed](const dd::Bytes& req) {
      const auto shed =
          dc::Status::Unavailable("synthetic overload").with_retry_after(
              hint_ms);
      if (dd::peek_type(req).value() == dd::MessageType::kHealthProbe) {
        return dd::encode_worker_health(dd::WorkerHealth{.worker = "shedder"});
      }
      if (stream_shed) {
        return dd::encode_stream_end(shed, ds::GenerateStats{});
      }
      return dd::encode_status(shed);
    });
  }

  dd::RouterConfig round_robin() {
    dd::RouterConfig config;
    config.policy = dd::RouterConfig::Policy::kRoundRobin;
    config.health_refresh_every = 0;  // Probe only on demand: deterministic.
    return config;
  }

  dd::LoopbackTransport transport_;
  diffpattern::unet::UNet weights_;
};

TEST_F(DistRouterTest, NoReplicasIsNotFound) {
  dd::ReplicaRouter router;
  const auto result =
      router.generate(ds::GenerateRequest{.model = "demo", .count = 1});
  EXPECT_EQ(result.status().code(), dc::StatusCode::kNotFound);
}

TEST_F(DistRouterTest, WorkerTypedErrorsReturnVerbatim) {
  // A model the router knows replicas for but the worker's service does
  // not: the service's NOT_FOUND crosses the wire untouched (and the
  // replica is not blamed — no failover, no cooldown).
  auto worker = make_worker("w0");
  dd::ReplicaRouter router(round_robin());
  router.add_replica("ghost", transport_.connect("w0"));
  const auto result =
      router.generate(ds::GenerateRequest{.model = "ghost", .count = 1});
  EXPECT_EQ(result.status().code(), dc::StatusCode::kNotFound);
  EXPECT_EQ(router.counters().failovers, 0);
  EXPECT_EQ(router.healthy_replicas("ghost"), 1);
}

TEST_F(DistRouterTest, CrossReplicaByteDeterminism) {
  auto w0 = make_worker("w0");
  auto w1 = make_worker("w1");
  auto w2 = make_worker("w2");
  const ds::GenerateRequest request{.model = "demo", .count = 3, .seed = 2023};

  // Golden: one replica's service, called directly (no wire).
  const auto golden = w0->service().generate(request);
  ASSERT_TRUE(golden.ok()) << golden.status().to_string();

  // Each replica through the wire individually: identical bytes.
  const dd::Bytes frame = dd::encode_generate_request(request);
  for (const auto* name : {"w0", "w1", "w2"}) {
    auto response = transport_.connect(name)->call(frame);
    ASSERT_TRUE(response.ok()) << name;
    const auto decoded = dd::decode_generate_result(response.value());
    ASSERT_TRUE(decoded.ok()) << name << ": "
                              << decoded.status().to_string();
    EXPECT_TRUE(same_patterns(golden->patterns, decoded->patterns)) << name;
  }

  // Through the router, repeatedly: whichever replica p2c lands on, the
  // bytes cannot differ.
  dd::ReplicaRouter router(dd::RouterConfig{.seed = 11});
  for (const auto* name : {"w0", "w1", "w2"}) {
    router.add_replica("demo", transport_.connect(name));
  }
  for (int i = 0; i < 4; ++i) {
    const auto routed = router.generate(request);
    ASSERT_TRUE(routed.ok()) << routed.status().to_string();
    EXPECT_TRUE(same_patterns(golden->patterns, routed->patterns));
  }
}

TEST_F(DistRouterTest, FailoverReplaysIdenticalBytesAndProbesRevive) {
  auto w0 = make_worker("w0");
  auto w1 = make_worker("w1");
  const ds::GenerateRequest request{.model = "demo", .count = 3, .seed = 5};
  const auto golden = w1->service().generate(request);
  ASSERT_TRUE(golden.ok());

  dd::ReplicaRouter router(round_robin());
  router.add_replica("demo", transport_.connect("w0"));
  router.add_replica("demo", transport_.connect("w1"));

  // Cut w0 off. Round-robin tries it first (deterministically), takes
  // the transport failure, marks it down, and replays on w1 — the client
  // sees one OK result, byte-identical to an unloaded run.
  transport_.unregister_endpoint("w0");
  const auto failed_over = router.generate(request);
  ASSERT_TRUE(failed_over.ok()) << failed_over.status().to_string();
  EXPECT_TRUE(same_patterns(golden->patterns, failed_over->patterns));
  EXPECT_GE(router.counters().failovers, 1);
  EXPECT_EQ(router.healthy_replicas("demo"), 1);

  // Bring w0 back: an on-demand probe revives it.
  transport_.register_endpoint(
      "w0", [&w0](const dd::Bytes& frame) { return w0->handle(frame); });
  router.refresh_health();
  EXPECT_EQ(router.healthy_replicas("demo"), 2);
  EXPECT_GE(router.counters().health_probes, 2);

  // Replay after recovery still reproduces the identical bytes.
  const auto after = router.generate(request);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(same_patterns(golden->patterns, after->patterns));
}

TEST_F(DistRouterTest, FailedProbeMarksReplicaDown) {
  auto w0 = make_worker("w0");
  dd::ReplicaRouter router(round_robin());
  router.add_replica("demo", transport_.connect("w0"));
  transport_.unregister_endpoint("w0");
  router.refresh_health();
  EXPECT_EQ(router.healthy_replicas("demo"), 0);
  EXPECT_GE(router.counters().health_failures, 1);
  const auto result =
      router.generate(ds::GenerateRequest{.model = "demo", .count = 1});
  EXPECT_EQ(result.status().code(), dc::StatusCode::kUnavailable);
}

TEST_F(DistRouterTest, ShedRedirectsToPeerWithHintedCooldown) {
  // The hint is deliberately far longer than the test: the cooldown must
  // still be in force after the (slow) redirected generation finishes.
  // Cooldown EXPIRY is covered by StreamShedFromRealWorkerCarriesRetryHint.
  register_shedder("shedder", /*hint_ms=*/60'000);
  auto worker = make_worker("w1");
  const ds::GenerateRequest request{.model = "demo", .count = 3, .seed = 31};
  const auto golden = worker->service().generate(request);
  ASSERT_TRUE(golden.ok());

  auto config = round_robin();
  config.max_backoff_ms = 60'000;  // Let the full hint stand as cooldown.
  dd::ReplicaRouter router(config);
  router.add_replica("demo", transport_.connect("shedder"));
  router.add_replica("demo", transport_.connect("w1"));

  // Round-robin hits the shedder first; the shed redirects to the peer and
  // the client still gets the golden bytes.
  const auto result = router.generate(request);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(same_patterns(golden->patterns, result->patterns));
  const auto counters = router.counters();
  EXPECT_EQ(counters.redirects, 1);
  EXPECT_EQ(counters.sheds_returned, 0);

  // The hint became a cooldown (capped at max_backoff_ms, still >> this
  // test): the shedder is out of rotation, so the next request reaches the
  // peer without a redirect.
  EXPECT_EQ(router.healthy_replicas("demo"), 1);
  const auto second = router.generate(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(router.counters().redirects, 1);
}

TEST_F(DistRouterTest, AllReplicasShedReturnsHintedStatus) {
  register_shedder("shedder", /*hint_ms=*/25);
  dd::ReplicaRouter router(round_robin());
  router.add_replica("demo", transport_.connect("shedder"));
  const auto result =
      router.generate(ds::GenerateRequest{.model = "demo", .count = 1});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dc::StatusCode::kUnavailable);
  EXPECT_TRUE(result.status().has_retry_after());
  EXPECT_EQ(result.status().retry_after_ms(), 25);
  EXPECT_EQ(router.counters().sheds_returned, 1);
}

TEST_F(DistRouterTest, LoadAwarePlacementFollowsReportedHealth) {
  // Two synthetic replicas that differ only in reported load; each tags
  // its (empty) result so the test can see who served. With fresh health
  // before every request, power-of-two-choices must always keep the idle
  // one; round-robin — the load-blind control — must hit both.
  const auto fake_worker = [this](const std::string& name,
                                  std::int64_t admission_pending,
                                  std::int64_t marker) {
    transport_.register_endpoint(
        name, [name, admission_pending, marker](const dd::Bytes& req) {
          if (dd::peek_type(req).value() == dd::MessageType::kHealthProbe) {
            dd::WorkerHealth health;
            health.worker = name;
            health.admission_pending = admission_pending;
            return dd::encode_worker_health(health);
          }
          ds::GenerateResult result;
          result.stats.solver_rounds = marker;
          return dd::encode_generate_result(result);
        });
  };
  fake_worker("busy", /*admission_pending=*/100, /*marker=*/111);
  fake_worker("idle", /*admission_pending=*/0, /*marker=*/222);

  dd::RouterConfig load_aware;
  load_aware.seed = 3;
  load_aware.health_refresh_every = 1;  // Fresh signal for every request.
  dd::ReplicaRouter router(load_aware);
  router.add_replica("demo", transport_.connect("busy"));
  router.add_replica("demo", transport_.connect("idle"));

  const ds::GenerateRequest request{.model = "demo", .count = 1};
  for (int i = 0; i < 8; ++i) {
    const auto result = router.generate(request);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->stats.solver_rounds, 222) << "request " << i
        << " landed on the loaded replica";
  }

  dd::ReplicaRouter control(round_robin());
  control.add_replica("demo", transport_.connect("busy"));
  control.add_replica("demo", transport_.connect("idle"));
  std::int64_t busy_hits = 0;
  for (int i = 0; i < 8; ++i) {
    const auto result = control.generate(request);
    ASSERT_TRUE(result.ok());
    busy_hits += result->stats.solver_rounds == 111 ? 1 : 0;
  }
  EXPECT_EQ(busy_hits, 4);  // Load-blind: an even split.
}

TEST_F(DistRouterTest, StreamThroughRouterMatchesBlockingBytes) {
  auto w0 = make_worker("w0");
  auto w1 = make_worker("w1");
  const ds::GenerateRequest request{.model = "demo", .count = 4, .seed = 41};
  const auto golden = w0->service().generate(request);
  ASSERT_TRUE(golden.ok());

  dd::ReplicaRouter router(dd::RouterConfig{.seed = 9});
  router.add_replica("demo", transport_.connect("w0"));
  router.add_replica("demo", transport_.connect("w1"));

  std::vector<ds::StreamedPattern> slots;
  const auto stats = router.generate_stream(
      request,
      [&slots](const ds::StreamedPattern& slot) { slots.push_back(slot); });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->topologies_requested, 4);
  EXPECT_TRUE(same_patterns(
      golden->patterns, ds::assemble_stream_patterns(std::move(slots))));
}

TEST_F(DistRouterTest, StreamShedRedirectsBeforeAnyDelivery) {
  // A replica that sheds the stream before delivering anything is safe to
  // replay: the router retries on the peer and the client sees exactly one
  // complete stream.
  register_shedder("stream-shedder", /*hint_ms=*/25, /*stream_shed=*/true);
  auto worker = make_worker("w1");
  const ds::GenerateRequest request{.model = "demo", .count = 3, .seed = 51};
  const auto golden = worker->service().generate(request);
  ASSERT_TRUE(golden.ok());

  dd::ReplicaRouter router(round_robin());
  router.add_replica("demo", transport_.connect("stream-shedder"));
  router.add_replica("demo", transport_.connect("w1"));

  std::vector<ds::StreamedPattern> slots;
  const auto stats = router.generate_stream(
      request,
      [&slots](const ds::StreamedPattern& slot) { slots.push_back(slot); });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_TRUE(same_patterns(
      golden->patterns, ds::assemble_stream_patterns(std::move(slots))));
  EXPECT_EQ(router.counters().redirects, 1);
}

TEST_F(DistRouterTest, StreamShedFromRealWorkerCarriesRetryHint) {
  // End to end over a REAL overloaded worker (not a synthetic shedder):
  // the admission shed inside the service crosses the wire as a hinted
  // StreamEnd, and the router — out of peers — hands the hint to the
  // client with zero deliveries.
  auto worker = make_worker("w0", depth_only_flow(4, 1));
  dd::ReplicaRouter router(round_robin());
  router.add_replica("demo", transport_.connect("w0"));

  const ds::GenerateRequest busy{.model = "demo", .count = 8, .seed = 61};
  std::thread holder(
      [&] { ASSERT_TRUE(worker->service().generate(busy).ok()); });
  ASSERT_TRUE(wait_for(
      [&] { return worker->service().counters().admission_pending >= 1; }));

  std::int64_t deliveries = 0;
  const auto shed = router.generate_stream(
      ds::GenerateRequest{.model = "demo", .count = 1, .seed = 62},
      [&deliveries](const ds::StreamedPattern&) { ++deliveries; });
  EXPECT_EQ(shed.status().code(), dc::StatusCode::kUnavailable);
  EXPECT_TRUE(shed.status().has_retry_after());
  EXPECT_EQ(deliveries, 0);
  holder.join();

  // The hinted cooldown expires and the same request then succeeds.
  ASSERT_TRUE(wait_for([&] { return router.healthy_replicas("demo") == 1; }));
  const auto retry = router.generate_stream(
      ds::GenerateRequest{.model = "demo", .count = 1, .seed = 62},
      [&deliveries](const ds::StreamedPattern&) { ++deliveries; });
  ASSERT_TRUE(retry.ok()) << retry.status().to_string();
  EXPECT_EQ(deliveries, 1);
}

}  // namespace
