// Reduced-step sampling as a service knob: SamplingSpec validation at
// admission, the steps -> stride resolution, net-eval accounting in stats
// and service counters, and the serving-path fusion guarantee — requests
// with different strides sharing one service produce the same bytes they
// produce alone. The mini model's
// schedule has K = 6 steps and its signal lasts to the end (K_eps = K), so
// stride 2 runs 3 evaluations per topology and stride 4 runs 2. The fusion
// test also runs at K = 20, where the chain is truncated (K_eps = 18).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "counter_test_util.h"
#include "diffusion/diffusion.h"
#include "service/pattern_service.h"
#include "service_test_util.h"
#include "unet/unet.h"

namespace ds = diffpattern::service;
namespace dc = diffpattern::common;
namespace dd = diffpattern::diffusion;

namespace {

using ds::test::mini_model_config;
using ds::test::same_patterns;

constexpr std::int64_t kMiniSteps = 6;  // mini_model_config().schedule.steps

dd::BinarySchedule schedule_of(std::int64_t steps) {
  return dd::BinarySchedule(dd::ScheduleConfig{.steps = steps});
}

const dd::BinarySchedule kMini = schedule_of(kMiniSteps);

class StridedSamplingTest : public ::testing::Test {
 protected:
  StridedSamplingTest() : model_(mini_model_config().unet_config(), 3) {}

  /// A service with model "a": the mini model on a `steps`-step schedule.
  std::unique_ptr<ds::PatternService> make_service(
      ds::FlowControlConfig flow = permissive_flow(),
      std::int64_t steps = kMiniSteps) {
    ds::ServiceConfig config;
    config.legalize_workers = 2;
    config.max_fused_batch = 16;
    config.flow = flow;
    auto service = std::make_unique<ds::PatternService>(config);
    auto model = mini_model_config();
    model.schedule.steps = steps;
    EXPECT_TRUE(service->models()
                    .register_model("a", model, model_.registry(), {})
                    .ok());
    return service;
  }

  static ds::FlowControlConfig permissive_flow() {
    ds::FlowControlConfig flow;
    flow.max_queue_depth = 64;
    flow.shed_queue_depth = 64;
    flow.shed_fill_ratio = 0.0;
    return flow;
  }

  diffpattern::unet::UNet model_;
};

// ------------------------------------------------- step plans

TEST(StepPlan, StartsWhereTheSignalEndsAndStridesDown) {
  // K = 40: the chain starts at K_eps = 28, not 40.
  const auto k40 = schedule_of(40);
  std::vector<std::int64_t> full;
  for (std::int64_t k = 28; k >= 1; --k) {
    full.push_back(k);
  }
  EXPECT_EQ(dd::step_plan(k40, 1), full);
  EXPECT_EQ(dd::step_plan(k40, 4),
            (std::vector<std::int64_t>{28, 24, 20, 16, 12, 8, 4}));
  EXPECT_EQ(dd::step_plan(k40, 10), (std::vector<std::int64_t>{28, 18, 8}));
  EXPECT_EQ(dd::plan_length(k40, 1), 28);
  // Any stride at or past K_eps is one jump from K_eps to 0.
  EXPECT_EQ(dd::step_plan(k40, 40), (std::vector<std::int64_t>{28}));
  // Untruncated schedules (K_eps == K) keep the K, K - s, ... walk.
  EXPECT_EQ(dd::step_plan(kMini, 4), (std::vector<std::int64_t>{6, 2}));
}

// ------------------------------------------------- resolve + validation

TEST(SamplingSpecResolve, MapsKnobsToStrides) {
  // Unset -> full schedule.
  EXPECT_EQ(*ds::resolve_sampling_stride({}, kMini), 1);
  // Direct stride passes through.
  EXPECT_EQ(*ds::resolve_sampling_stride({.stride = 3}, kMini), 3);
  // steps target -> coarsest stride running >= that many evaluations.
  EXPECT_EQ(*ds::resolve_sampling_stride({.steps = 6}, kMini), 1);
  EXPECT_EQ(*ds::resolve_sampling_stride({.steps = 3}, kMini), 2);
  EXPECT_EQ(*ds::resolve_sampling_stride({.steps = 1}, kMini), 6);
  // steps = 4: stride 1 (6 evals) is the coarsest running >= 4; stride 2
  // would run only 3.
  EXPECT_EQ(*ds::resolve_sampling_stride({.steps = 4}, kMini), 1);
  // K = 40 (K_eps = 28), steps = 14: stride 2 runs exactly 14 (stride 3
  // would run 10).
  EXPECT_EQ(*ds::resolve_sampling_stride({.steps = 14}, schedule_of(40)), 2);
  // Targets in (K_eps, K] get the whole plan: stride 1, K_eps evals.
  EXPECT_EQ(*ds::resolve_sampling_stride({.steps = 35}, schedule_of(40)), 1);
  // K = 5, steps = 3: stride 2 runs 3.
  EXPECT_EQ(*ds::resolve_sampling_stride({.steps = 3}, schedule_of(5)), 2);
}

TEST(SamplingSpecResolve, StepsTargetIsCoarsestStrideMeetingIt) {
  // The header contract, swept: the resolved stride's plan has >= steps
  // visits, and the next coarser stride (if any) would have fewer. Targets
  // beyond the plan's start resolve to stride 1.
  for (std::int64_t k = 1; k <= 64; ++k) {
    const auto schedule = schedule_of(k);
    for (std::int64_t n = 1; n <= k; ++n) {
      const auto stride = ds::resolve_sampling_stride({.steps = n}, schedule);
      ASSERT_TRUE(stride.ok()) << "K=" << k << " steps=" << n;
      const auto s = *stride;
      ASSERT_GE(s, 1);
      ASSERT_LE(s, k);
      if (n > schedule.chain_start()) {
        EXPECT_EQ(s, 1) << "K=" << k << " steps=" << n;
        continue;
      }
      EXPECT_GE(dd::plan_length(schedule, s), n)
          << "K=" << k << " steps=" << n << " stride=" << s;
      EXPECT_TRUE(s == k || dd::plan_length(schedule, s + 1) < n)
          << "K=" << k << " steps=" << n << " stride=" << s
          << " is not the coarsest";
    }
  }
}

TEST(SamplingSpecResolve, RejectsMalformedSpecs) {
  EXPECT_EQ(ds::resolve_sampling_stride({.steps = -1}, kMini)
                .status()
                .code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(ds::resolve_sampling_stride({.stride = -2}, kMini)
                .status()
                .code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(ds::resolve_sampling_stride({.steps = 2, .stride = 2},
                                        kMini)
                .status()
                .code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(ds::resolve_sampling_stride({.stride = kMiniSteps + 1},
                                        kMini)
                .status()
                .code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(ds::resolve_sampling_stride({.steps = kMiniSteps + 1},
                                        kMini)
                .status()
                .code(),
            dc::StatusCode::kInvalidArgument);
}

TEST_F(StridedSamplingTest, MalformedKnobAnswersInvalidArgumentAtAdmission) {
  auto service = make_service();
  ds::GenerateRequest request{.model = "a", .count = 1, .seed = 1};
  request.sampling.stride = -1;
  EXPECT_EQ(service->validate(request).code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(service->generate(request).status().code(),
            dc::StatusCode::kInvalidArgument);

  request.sampling = {.steps = 3, .stride = 2};  // Mutually exclusive.
  EXPECT_EQ(service->generate(request).status().code(),
            dc::StatusCode::kInvalidArgument);

  request.sampling = {.stride = kMiniSteps + 1};  // Jumps past the walk.
  EXPECT_EQ(service->generate(request).status().code(),
            dc::StatusCode::kInvalidArgument);

  // The sampling-only surface shares the validation.
  ds::SampleTopologiesRequest topo{.model = "a", .count = 1, .seed = 1};
  topo.sampling.steps = -3;
  EXPECT_EQ(service->sample_topologies(topo).status().code(),
            dc::StatusCode::kInvalidArgument);
}

// ------------------------------------------------- stats + counters

TEST_F(StridedSamplingTest, StrideCutsNetEvalsAndIsReportedInStats) {
  auto service = make_service();
  ds::GenerateRequest request{.model = "a", .count = 2, .seed = 7};
  request.sampling.stride = 2;
  const auto result = service->generate(request);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.sampling_stride, 2);
  EXPECT_EQ(result->stats.steps_run, 3);  // ceil(6 / 2).
  EXPECT_EQ(result->stats.net_evals, 6);  // 2 topologies * 3 steps.

  // Service counters carry the fleet view: every executed slot-evaluation
  // lands in net_evals, every skipped one in steps_skipped, and the two
  // sum to slots * K.
  const auto counters = service->counters();
  EXPECT_EQ(counters.net_evals, 6);
  EXPECT_EQ(counters.steps_skipped, 6);  // 2 topologies * (6 - 3).
  diffpattern::test::expect_eval_accounting(counters, kMiniSteps);
}

TEST_F(StridedSamplingTest, StepsTargetResolvesThroughTheServicePath) {
  auto service = make_service();
  ds::GenerateRequest request{.model = "a", .count = 2, .seed = 7};
  request.sampling.steps = 3;  // -> stride 2 on the K = 6 schedule.
  const auto by_steps = service->generate(request);
  ASSERT_TRUE(by_steps.ok()) << by_steps.status().to_string();
  EXPECT_EQ(by_steps->stats.sampling_stride, 2);
  EXPECT_EQ(by_steps->stats.steps_run, 3);

  // The steps form is pure sugar for its resolved stride: same bytes.
  ds::GenerateRequest direct{.model = "a", .count = 2, .seed = 7};
  direct.sampling.stride = 2;
  const auto by_stride = make_service()->generate(direct);
  ASSERT_TRUE(by_stride.ok());
  EXPECT_TRUE(same_patterns(by_steps->patterns, by_stride->patterns));
}

TEST_F(StridedSamplingTest, SampleTopologiesCarriesTheKnob) {
  auto service = make_service();
  ds::SampleTopologiesRequest request{.model = "a", .count = 3, .seed = 9};
  request.sampling.stride = 4;
  const auto result = service->sample_topologies(request);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->topologies.size(), 3U);
  EXPECT_EQ(result->stats.sampling_stride, 4);
  EXPECT_EQ(result->stats.steps_run, 2);  // ceil(6 / 4).
  EXPECT_EQ(result->stats.net_evals, 6);
}

// ------------------------------------------------- fusion invariance

TEST_F(StridedSamplingTest, MixedStrideRequestsMatchTheirSoloRuns) {
  // K = 6 runs every plan from K; K = 20 starts every plan at K_eps = 18,
  // so stride 1 runs 18 steps, stride 4 runs 18, 14, 10, 6, 2 and stride
  // 10 runs 18, 8.
  struct Case {
    std::int64_t steps;
    std::vector<std::int64_t> strides;
  };
  for (const auto& [steps, strides] :
       {Case{kMiniSteps, {1, 2, 4}}, Case{20, {1, 4, 10}}}) {
    const auto schedule = schedule_of(steps);
    const auto request_for = [&](std::size_t i) {
      ds::GenerateRequest request{
          .model = "a", .count = 4,
          .seed = 100 + static_cast<std::uint64_t>(i)};
      request.sampling.stride = strides[i];
      return request;
    };
    // Solo references, one unloaded service each.
    std::vector<std::vector<diffpattern::layout::SquishPattern>> references;
    for (std::size_t i = 0; i < strides.size(); ++i) {
      const auto solo =
          make_service(permissive_flow(), steps)->generate(request_for(i));
      ASSERT_TRUE(solo.ok()) << solo.status().to_string();
      references.push_back(solo->patterns);
    }

    // The same three requests race on ONE service whose fused budget fits
    // them all, so sampling rounds mix strides (coarse slots drop out of
    // rounds their plan skips). However the scheduler interleaves them,
    // each request's bytes must match its solo run, and stats and
    // counters must book exactly the evaluations each step plan runs.
    auto service = make_service(permissive_flow(), steps);
    std::vector<dc::Result<ds::GenerateResult>> results(
        strides.size(), dc::Result<ds::GenerateResult>(
                            dc::Status::Unavailable("unrun")));
    {
      std::vector<std::thread> clients;
      for (std::size_t i = 0; i < strides.size(); ++i) {
        clients.emplace_back(
            [&, i] { results[i] = service->generate(request_for(i)); });
      }
      for (auto& client : clients) {
        client.join();
      }
    }
    std::int64_t net_evals = 0;
    for (std::size_t i = 0; i < strides.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().to_string();
      const auto& stats = results[i]->stats;
      const auto plan = dd::plan_length(schedule, strides[i]);
      EXPECT_EQ(stats.sampling_stride, strides[i]);
      EXPECT_EQ(stats.steps_run, plan) << "K=" << steps;
      EXPECT_EQ(stats.net_evals, 4 * plan) << "K=" << steps;
      EXPECT_TRUE(same_patterns(references[i], results[i]->patterns))
          << "K=" << steps << ": stride " << strides[i]
          << " request changed bytes when mixed with other strides";
      net_evals += stats.net_evals;
    }
    const auto counters = service->counters();
    EXPECT_EQ(counters.net_evals, net_evals) << "K=" << steps;
    diffpattern::test::expect_eval_accounting(counters, steps);
  }
}

}  // namespace
