// Flow-control tests: admission windows, load shedding with retry hints,
// degraded admission, deadlines (queued and mid-sampling), and priority
// scheduling. The throughline is the
// project invariant: flow control decides WHETHER/WHEN/HOW MANY slots
// run, never what they sample — every admitted slot's bytes must match
// an unloaded sequential run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/pattern_service.h"
#include "service_test_util.h"
#include "unet/unet.h"

namespace ds = diffpattern::service;
namespace dc = diffpattern::common;

namespace {

using ds::test::mini_model_config;
using ds::test::same_patterns;

/// Spins (1 ms steps) until `pred` holds; false on timeout.
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

// ----------------------------------------------- AdmissionController unit

ds::FlowControlConfig depth_only_flow(std::int64_t max_depth,
                                      std::int64_t shed_depth) {
  ds::FlowControlConfig flow;
  flow.max_queue_depth = max_depth;
  flow.shed_queue_depth = shed_depth;
  flow.shed_fill_ratio = 0.0;  // Depth-driven only: fully deterministic.
  flow.retry_after_ms = 10;
  return flow;
}

TEST(AdmissionControl, AdmitsBelowThresholdsAndShedsAbove) {
  dc::CounterBlock counters;
  ds::AdmissionController admission(depth_only_flow(4, 2), 8, counters);

  // Depth 0 and 1 admit untouched.
  for (int i = 0; i < 2; ++i) {
    const auto d = admission.admit("m", 8, false);
    ASSERT_TRUE(d.status.ok()) << d.status.to_string();
    EXPECT_EQ(d.admitted_count, 8);
    EXPECT_FALSE(d.degraded);
  }
  EXPECT_EQ(admission.pending("m"), 2);

  // Soft threshold: shed with a structured retry hint.
  const auto shed = admission.admit("m", 8, false);
  EXPECT_EQ(shed.status.code(), dc::StatusCode::kUnavailable);
  EXPECT_TRUE(shed.status.has_retry_after());
  EXPECT_EQ(admission.pending("m"), 2);  // A shed takes no window slot.

  // Other shards are independent.
  EXPECT_TRUE(admission.admit("other", 4, false).status.ok());
  EXPECT_EQ(admission.pending("other"), 1);

  // release() reopens the window.
  admission.release("m");
  EXPECT_EQ(admission.pending("m"), 1);
  EXPECT_TRUE(admission.admit("m", 8, false).status.ok());

  const auto snapshot = dc::snapshot(counters);
  EXPECT_EQ(snapshot.admission_pending, 3);  // 2 on "m" + 1 on "other".
  EXPECT_EQ(snapshot.admission_pending_peak, 3);
  EXPECT_EQ(snapshot.requests_shed, 1);
}

TEST(AdmissionControl, DegradesInsteadOfSheddingWhenAllowed) {
  dc::CounterBlock counters;
  ds::AdmissionController admission(depth_only_flow(4, 2), 8, counters);
  ASSERT_TRUE(admission.admit("m", 8, false).status.ok());
  ASSERT_TRUE(admission.admit("m", 8, false).status.ok());

  // In the soft band a degradable request is admitted with count / 2.
  const auto degraded = admission.admit("m", 9, true);
  ASSERT_TRUE(degraded.status.ok());
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.admitted_count, 4);  // floor(9 / 2).
  EXPECT_EQ(admission.pending("m"), 3);

  // A single-topology request cannot shrink: shed even with allow_degrade.
  const auto single = admission.admit("m", 1, true);
  EXPECT_EQ(single.status.code(), dc::StatusCode::kUnavailable);

  // The hard cap answers RESOURCE_EXHAUSTED regardless of allow_degrade.
  ASSERT_TRUE(admission.admit("m", 8, true).status.ok());  // Depth -> 4.
  const auto hard = admission.admit("m", 8, true);
  EXPECT_EQ(hard.status.code(), dc::StatusCode::kResourceExhausted);
  EXPECT_TRUE(hard.status.has_retry_after());
  EXPECT_EQ(dc::snapshot(counters).requests_degraded, 2);
}

TEST(AdmissionControl, RetryHintScalesWithBacklog) {
  dc::CounterBlock counters;
  ds::AdmissionController admission(depth_only_flow(16, 2), 8, counters);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(admission.admit("m", 1, false).status.ok());
  }
  const auto at_threshold = admission.admit("m", 1, false);
  // Deeper backlog (degraded admissions still deepen the window) => a
  // longer structured back-off.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(admission.admit("m", 4, true).status.ok());
  }
  const auto deep = admission.admit("m", 1, false);
  EXPECT_EQ(at_threshold.status.code(), dc::StatusCode::kUnavailable);
  EXPECT_EQ(deep.status.code(), dc::StatusCode::kUnavailable);
  EXPECT_GT(deep.status.retry_after_ms(),
            at_threshold.status.retry_after_ms());
}

TEST(AdmissionControl, FillRatioTriggersEarlyShedding) {
  dc::CounterBlock counters;
  ds::FlowControlConfig flow = depth_only_flow(8, 4);
  flow.shed_fill_ratio = 0.9;
  ds::AdmissionController admission(flow, 4, counters);

  // No rounds observed yet: the fill signal stays quiet, depth rules.
  ASSERT_TRUE(admission.admit("m", 1, false).status.ok());
  ASSERT_TRUE(admission.admit("m", 1, false).status.ok());
  ASSERT_TRUE(admission.admit("m", 1, false).status.ok());
  EXPECT_EQ(admission.pending("m"), 3);
  for (int i = 0; i < 3; ++i) {
    admission.release("m");
  }

  // Saturated rounds (fill ratio 1.0 against budget 4): soft shedding now
  // starts at half the threshold (depth >= 2).
  counters.rounds_executed.add();
  counters.fused_slots_total.add(4);
  ASSERT_TRUE(admission.admit("m", 1, false).status.ok());
  ASSERT_TRUE(admission.admit("m", 1, false).status.ok());
  const auto early = admission.admit("m", 1, false);
  EXPECT_EQ(early.status.code(), dc::StatusCode::kUnavailable);

  // The signal is windowed, not a lifetime mean: once the NEXT rounds run
  // sparse (1 of 4 slots), the saturated past stops shedding — the same
  // depth is admitted again.
  counters.rounds_executed.add();
  counters.fused_slots_total.add(1);
  const auto after_sparse = admission.admit("m", 1, false);
  EXPECT_TRUE(after_sparse.status.ok()) << after_sparse.status.to_string();
}

TEST(AdmissionControl, NormalizesDegenerateConfig) {
  dc::CounterBlock counters;
  ds::FlowControlConfig flow;
  flow.max_queue_depth = 0;    // -> 1.
  flow.shed_queue_depth = 99;  // -> clamped to max_queue_depth.
  flow.retry_after_ms = -5;    // -> 1.
  ds::AdmissionController admission(flow, 4, counters);
  EXPECT_EQ(admission.config().max_queue_depth, 1);
  EXPECT_EQ(admission.config().shed_queue_depth, 1);
  EXPECT_EQ(admission.config().retry_after_ms, 1);
  ASSERT_TRUE(admission.admit("m", 1, false).status.ok());
  EXPECT_EQ(admission.admit("m", 1, false).status.code(),
            dc::StatusCode::kResourceExhausted);
}

// ------------------------------------------------- service integration

/// Service factory over two mini models with a configurable fused budget
/// and flow policy (tight budgets force multi-round jobs, which the
/// overload and deadline tests use to hold the shard busy).
class ServiceFlowTest : public ::testing::Test {
 protected:
  ServiceFlowTest()
      : model_a_(mini_model_config().unet_config(), /*seed=*/3),
        model_b_(mini_model_config().unet_config(), /*seed=*/4) {}

  std::unique_ptr<ds::PatternService> make_service(
      std::int64_t max_fused_batch, const ds::FlowControlConfig& flow) {
    ds::ServiceConfig config;
    config.legalize_workers = 2;
    config.max_fused_batch = max_fused_batch;
    config.flow = flow;
    auto service = std::make_unique<ds::PatternService>(config);
    EXPECT_TRUE(service->models()
                    .register_model("a", mini_model_config(),
                                    model_a_.registry(), {})
                    .ok());
    EXPECT_TRUE(service->models()
                    .register_model("b", mini_model_config(),
                                    model_b_.registry(), {})
                    .ok());
    return service;
  }

  /// Permissive flow: thresholds far above what any test queues, fill
  /// signal off — for tests about deadlines/priority/backpressure only.
  static ds::FlowControlConfig open_flow() {
    return depth_only_flow(64, 64);
  }

  diffpattern::unet::UNet model_a_;
  diffpattern::unet::UNet model_b_;
};

TEST_F(ServiceFlowTest, NegativeDeadlineIsInvalidArgument) {
  auto service = make_service(16, open_flow());
  ds::GenerateRequest request{.model = "a", .count = 1, .seed = 1};
  request.deadline_ms = -7;
  EXPECT_EQ(service->validate(request).code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(service->generate(request).status().code(),
            dc::StatusCode::kInvalidArgument);
}

TEST_F(ServiceFlowTest, ShedsWithRetryHintAtSoftThreshold) {
  // shed threshold 1: anything arriving while one request is in flight on
  // the shard is shed. Budget 1 keeps the first request busy for 8 rounds.
  auto service = make_service(1, depth_only_flow(4, 1));
  const ds::GenerateRequest busy{.model = "a", .count = 8, .seed = 11};
  std::thread holder([&] { ASSERT_TRUE(service->generate(busy).ok()); });
  ASSERT_TRUE(wait_for(
      [&] { return service->counters().admission_pending >= 1; }));

  const ds::GenerateRequest late{.model = "a", .count = 1, .seed = 12};
  const auto shed = service->generate(late);
  EXPECT_EQ(shed.status().code(), dc::StatusCode::kUnavailable);
  EXPECT_TRUE(shed.status().has_retry_after());

  // The other model's shard has its own window: not shed.
  const ds::GenerateRequest other{.model = "b", .count = 1, .seed = 13};
  EXPECT_TRUE(service->generate(other).ok());

  holder.join();
  const auto counters = service->counters();
  EXPECT_GE(counters.requests_shed, 1);
  EXPECT_GE(counters.rejects(dc::StatusCode::kUnavailable), 1);
  EXPECT_EQ(counters.admission_pending, 0);
  // Window reopened: the identical request is admitted now — and sheds
  // never perturbed the admitted requests' bytes.
  const auto retry = service->generate(late);
  ASSERT_TRUE(retry.ok()) << retry.status().to_string();
}

TEST_F(ServiceFlowTest, HardCapAnswersResourceExhausted) {
  auto service = make_service(1, depth_only_flow(1, 1));
  const ds::GenerateRequest busy{.model = "a", .count = 8, .seed = 21};
  std::thread holder([&] { ASSERT_TRUE(service->generate(busy).ok()); });
  ASSERT_TRUE(wait_for(
      [&] { return service->counters().admission_pending >= 1; }));

  ds::GenerateRequest late{.model = "a", .count = 4, .seed = 22};
  late.allow_degrade = true;  // Degrade cannot dodge the hard cap.
  const auto exhausted = service->generate(late);
  EXPECT_EQ(exhausted.status().code(), dc::StatusCode::kResourceExhausted);
  EXPECT_TRUE(exhausted.status().has_retry_after());
  holder.join();
  EXPECT_GE(service->counters().rejects(dc::StatusCode::kResourceExhausted),
            1);
}

TEST_F(ServiceFlowTest, DegradedAdmissionRunsByteIdenticalPrefix) {
  // Reference: what an unloaded run of the SHRUNKEN request produces.
  auto reference_service = make_service(16, open_flow());
  const ds::GenerateRequest shrunk{.model = "a", .count = 3, .seed = 31};
  const auto reference = reference_service->generate(shrunk);
  ASSERT_TRUE(reference.ok());

  auto service = make_service(1, depth_only_flow(4, 1));
  const ds::GenerateRequest busy{.model = "a", .count = 8, .seed = 32};
  std::thread holder([&] { ASSERT_TRUE(service->generate(busy).ok()); });
  ASSERT_TRUE(wait_for(
      [&] { return service->counters().admission_pending >= 1; }));

  ds::GenerateRequest flexible{.model = "a", .count = 6, .seed = 31};
  flexible.allow_degrade = true;
  const auto degraded = service->generate(flexible);
  holder.join();
  ASSERT_TRUE(degraded.ok()) << degraded.status().to_string();
  EXPECT_TRUE(degraded->stats.degraded);
  EXPECT_EQ(degraded->stats.topologies_requested, 6);
  EXPECT_EQ(degraded->stats.topologies_admitted, 3);
  // Degradation = the byte-identical prefix of the full request: slots
  // [0, 3) with the same seed, identical to the unloaded count=3 run.
  EXPECT_TRUE(same_patterns(reference->patterns, degraded->patterns));
  EXPECT_GE(service->counters().requests_degraded, 1);
}

TEST_F(ServiceFlowTest, DeadlineExpiresWhileQueued) {
  auto service = make_service(1, open_flow());
  const ds::GenerateRequest busy{.model = "a", .count = 8, .seed = 41};
  std::thread holder([&] { ASSERT_TRUE(service->generate(busy).ok()); });
  ASSERT_TRUE(wait_for(
      [&] { return service->counters().admission_pending >= 1; }));

  // Queued behind ~8 rounds of `busy` with a 1 ms budget: the scheduler
  // must cancel it at a round formation before it ever occupies slots.
  ds::GenerateRequest urgent{.model = "a", .count = 2, .seed = 42};
  urgent.deadline_ms = 1;
  const auto expired = service->generate(urgent);
  EXPECT_EQ(expired.status().code(), dc::StatusCode::kDeadlineExceeded);
  holder.join();
  const auto counters = service->counters();
  EXPECT_GE(counters.deadlines_expired, 1);
  EXPECT_GE(counters.rejects(dc::StatusCode::kDeadlineExceeded), 1);
  EXPECT_EQ(counters.admission_pending, 0);  // Window slot released.

  // A deadline-free retry of the same request reproduces the reference
  // bytes (expiry cancelled cleanly, nothing leaked into RNG streams).
  urgent.deadline_ms = 0;
  const auto retry = service->generate(urgent);
  ASSERT_TRUE(retry.ok());
  auto reference_service = make_service(16, open_flow());
  const auto reference = reference_service->generate(
      ds::GenerateRequest{.model = "a", .count = 2, .seed = 42});
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(same_patterns(reference->patterns, retry->patterns));
}

TEST_F(ServiceFlowTest, DeadlineExpiresMidSamplingAfterPartialDelivery) {
  // Budget 1 turns count=256 into ~256 rounds — far beyond the 50 ms
  // budget — so the job starts sampling, streams early slots, then gets
  // cancelled between rounds with DEADLINE_EXCEEDED.
  auto service = make_service(1, open_flow());
  ds::GenerateRequest request{.model = "a", .count = 256, .seed = 51};
  request.deadline_ms = 50;
  std::int64_t deliveries = 0;
  const auto result = service->generate_stream(
      request, [&deliveries](const ds::StreamedPattern&) { ++deliveries; });
  EXPECT_EQ(result.status().code(), dc::StatusCode::kDeadlineExceeded);
  EXPECT_GE(deliveries, 1);  // It really was sampling when it expired.
  const auto counters = service->counters();
  EXPECT_GE(counters.deadlines_expired, 1);
  EXPECT_EQ(counters.admission_pending, 0);
  // The shard survives an expiry mid-queue: next request is clean.
  EXPECT_TRUE(service
                  ->generate(ds::GenerateRequest{.model = "a", .count = 1,
                                                 .seed = 52})
                  .ok());
}

TEST_F(ServiceFlowTest, PriorityOrdersRoundsWithoutPerturbingBytes) {
  // Solo references on an unloaded service.
  auto reference_service = make_service(16, open_flow());
  const ds::GenerateRequest hi_req{.model = "a", .count = 2, .seed = 61,
                                   .priority = 5};
  const ds::GenerateRequest lo_req{.model = "a", .count = 2, .seed = 62,
                                   .priority = 0};
  const auto hi_reference = reference_service->generate(
      ds::GenerateRequest{.model = "a", .count = 2, .seed = 61});
  const auto lo_reference = reference_service->generate(
      ds::GenerateRequest{.model = "a", .count = 2, .seed = 62});
  ASSERT_TRUE(hi_reference.ok());
  ASSERT_TRUE(lo_reference.ok());

  // Contended shard: a long priority-0 job holds the queue while lo (0)
  // and then hi (5) arrive. The priority-ordered queue must finish hi
  // first even though lo enqueued earlier.
  auto service = make_service(1, open_flow());
  const ds::GenerateRequest busy{.model = "a", .count = 12, .seed = 63};
  std::mutex order_mutex;
  std::vector<std::string> completion_order;
  const auto record = [&](const char* name) {
    const std::lock_guard<std::mutex> lock(order_mutex);
    completion_order.emplace_back(name);
  };
  std::thread holder([&] { ASSERT_TRUE(service->generate(busy).ok()); });
  ASSERT_TRUE(wait_for(
      [&] { return service->counters().admission_pending >= 1; }));

  dc::Result<ds::GenerateResult> lo_result(dc::Status::Unavailable("unrun"));
  dc::Result<ds::GenerateResult> hi_result(dc::Status::Unavailable("unrun"));
  std::thread lo_client([&] {
    lo_result = service->generate(lo_req);
    record("lo");
  });
  ASSERT_TRUE(wait_for(
      [&] { return service->counters().admission_pending >= 2; }));
  std::thread hi_client([&] {
    hi_result = service->generate(hi_req);
    record("hi");
  });
  lo_client.join();
  hi_client.join();
  holder.join();

  ASSERT_TRUE(lo_result.ok()) << lo_result.status().to_string();
  ASSERT_TRUE(hi_result.ok()) << hi_result.status().to_string();
  ASSERT_EQ(completion_order.size(), 2U);
  EXPECT_EQ(completion_order.front(), "hi")
      << "priority 5 finished after priority 0";
  // Reordering must be invisible in the bytes of every request.
  EXPECT_TRUE(same_patterns(hi_reference->patterns, hi_result->patterns));
  EXPECT_TRUE(same_patterns(lo_reference->patterns, lo_result->patterns));
}

TEST_F(ServiceFlowTest, PushStreamShedCarriesSameRetryHintAsBlocking) {
  // A shed is a shed on every API shape: the push-stream path must reject
  // with the same structured retry hint the blocking generate() returns —
  // and deliver nothing. (The distributed plane forwards this hint over
  // the wire; see test_dist_router.cpp.)
  auto service = make_service(1, depth_only_flow(4, 1));
  const ds::GenerateRequest busy{.model = "a", .count = 8, .seed = 81};
  std::thread holder([&] { ASSERT_TRUE(service->generate(busy).ok()); });
  ASSERT_TRUE(wait_for(
      [&] { return service->counters().admission_pending >= 1; }));

  const ds::GenerateRequest late{.model = "a", .count = 1, .seed = 82};
  const auto blocking_shed = service->generate(late);
  ASSERT_EQ(blocking_shed.status().code(), dc::StatusCode::kUnavailable);

  std::int64_t deliveries = 0;
  const auto stream_shed = service->generate_stream(
      late, [&deliveries](const ds::StreamedPattern&) { ++deliveries; });
  EXPECT_EQ(stream_shed.status().code(), dc::StatusCode::kUnavailable);
  EXPECT_TRUE(stream_shed.status().has_retry_after());
  EXPECT_EQ(stream_shed.status().retry_after_ms(),
            blocking_shed.status().retry_after_ms());
  EXPECT_EQ(deliveries, 0);
  holder.join();
}

TEST_F(ServiceFlowTest, LegalizeTopologiesPassesAdmission) {
  // Caller topologies queue on the legalize pool, so they take a window
  // slot like any sampled request: while a parked stream holds model a's
  // only slot, legalize_topologies on a is shed with a retry hint.
  std::vector<diffpattern::geometry::BinaryGrid> topologies;
  for (const std::int64_t side : {3, 5}) {
    diffpattern::geometry::BinaryGrid grid(side, side);
    grid.set(side / 2, side / 2, 1);
    topologies.push_back(grid);
  }
  const ds::LegalizeTopologiesRequest legalize{
      .model = "a", .topologies = topologies, .seed = 91};
  auto idle_service = make_service(16, open_flow());
  const auto reference = idle_service->legalize_topologies(legalize);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  EXPECT_FALSE(reference->patterns.empty());

  auto service = make_service(1, depth_only_flow(1, 1));
  const ds::GenerateRequest parked_request{.model = "a", .count = 1,
                                           .seed = 92};
  std::atomic<bool> parked{false};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread parker([&] {
    EXPECT_TRUE(service
                    ->generate_stream(parked_request,
                                      [&](const ds::StreamedPattern&) {
                                        parked.store(true);
                                        released.wait();
                                      })
                    .ok());
  });
  // EXPECT, not ASSERT: returning with the parker still blocked would end
  // the whole test binary in std::terminate.
  EXPECT_TRUE(wait_for([&] {
    return parked.load() && service->counters().admission_pending >= 1;
  }));

  const auto shed_before = service->counters().requests_shed;
  const auto shed = service->legalize_topologies(legalize);
  EXPECT_EQ(shed.status().code(), dc::StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.status().has_retry_after());
  EXPECT_GT(shed.status().retry_after_ms(), 0);
  EXPECT_EQ(service->counters().requests_shed, shed_before + 1);

  release.set_value();
  parker.join();
  const auto admitted = service->legalize_topologies(legalize);
  ASSERT_TRUE(admitted.ok()) << admitted.status().to_string();
  EXPECT_TRUE(same_patterns(reference->patterns, admitted->patterns));
  EXPECT_EQ(service->counters().admission_pending, 0);
}

}  // namespace
