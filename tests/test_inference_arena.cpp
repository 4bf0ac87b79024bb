// Inference memory plan: the activation arena must eliminate tensor-storage
// heap allocations in steady-state denoising (the zero-allocation claim),
// and the plan cache must bound its footprint via LRU eviction and key
// plans by batch shape. Byte-identity of pooled vs unpooled rounds lives in
// test_sampling_determinism.cpp; this file covers the machinery.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/compute_pool.h"
#include "diffusion/diffusion.h"
#include "sampling_test_util.h"
#include "tensor/arena.h"
#include "unet/unet.h"

namespace dd = diffpattern::diffusion;
namespace dc = diffpattern::common;
namespace du = diffpattern::unet;
namespace dt = diffpattern::tensor;
using diffpattern::tensor::Tensor;

namespace {

du::UNetConfig micro_config() {
  du::UNetConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 2;
  cfg.model_channels = 8;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  // Attention on so bmm/softmax (the ops with internal scratch) are on the
  // measured path.
  cfg.attention_levels = {1};
  cfg.dropout = 0.0F;
  return cfg;
}

Tensor run_sampling(du::UNet& model, const dd::BinarySchedule& schedule,
                    const dd::RoundHook& hook = nullptr) {
  return diffpattern::testutil::sample_slots(
      model, schedule, /*side=*/8, diffpattern::testutil::uniform_strides(2),
      /*seed=*/515151, /*stream=*/3, hook);
}

}  // namespace

// The zero-allocation claim. A warmed-up sampling run performs exactly ONE
// tensor heap allocation — the prior tensor created before the round loop,
// outside any arena scope. Every activation inside the rounds recycles
// through the plan: zero steady-state tensor-storage heap allocations per
// round. Pool workers run without an arena scope, so this holds at 2 and 4
// compute threads only because no kernel creates a tensor inside a
// parallel_for body.
TEST(InferenceArena, ZeroSteadyStateTensorHeapAllocationsPerRound) {
  du::UNet model(micro_config(), /*seed=*/17);
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 6});
  for (const std::int64_t threads : {1, 2, 4}) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    // Warmup: records the activation plan.
    run_sampling(model, schedule);

    std::int64_t rounds = 0;
    const auto before = dt::tensor_alloc_stats();
    const auto plans_before = dt::arena_stats();
    run_sampling(model, schedule,
                 [&rounds](std::int64_t, std::int64_t) { ++rounds; });
    const auto after = dt::tensor_alloc_stats();
    const auto plans_after = dt::arena_stats();

    EXPECT_EQ(after.heap_allocations - before.heap_allocations, 1)
        << threads << " thread(s): expected only the pre-loop prior tensor "
           "to hit the heap; steady-state rounds must be served entirely "
           "from the plan";
    EXPECT_GT(rounds, 0);
    EXPECT_GE(plans_after.plan_cache_hits - plans_before.plan_cache_hits,
              rounds)
        << "every warmed round should lease its recorded plan";
  }
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// Size-keyed freelist mechanics: a released storage comes back on the next
// same-size acquire, and pooled_bytes tracks what is parked.
TEST(InferenceArena, ArenaRecyclesReleasedStorageBySize) {
  dt::ActivationArena arena;
  std::vector<float> buf;
  EXPECT_FALSE(arena.acquire(buf, 64)) << "empty pool cannot hit";
  EXPECT_GE(buf.capacity(), 64U);
  const auto capacity = buf.capacity();
  arena.release(std::move(buf));
  EXPECT_EQ(arena.pooled_bytes(),
            static_cast<std::int64_t>(capacity * sizeof(float)));
  std::vector<float> again;
  EXPECT_TRUE(arena.acquire(again, 64)) << "same-size acquire must recycle";
  EXPECT_EQ(again.capacity(), capacity);
  EXPECT_TRUE(again.empty()) << "recycled storage must come back cleared";
  EXPECT_EQ(arena.pooled_bytes(), 0);
  // A different size keys a different freelist: no hit.
  std::vector<float> other;
  EXPECT_FALSE(arena.acquire(other, 128));
}

// Plans are keyed by batch shape and the cache is LRU-bounded: the oldest
// idle plan is evicted at capacity, and a rekeyed (re-created) shape counts
// as a fresh plan.
TEST(InferenceArena, PlanCacheEvictsLeastRecentlyUsedShape) {
  dt::InferencePlanCache cache(/*capacity=*/2);
  const dt::Shape a = {3, 1, 8, 8};
  const dt::Shape b = {2, 1, 8, 8};
  const dt::Shape c = {1, 1, 8, 8};

  dt::ActivationArena* pa = cache.lease(a);
  ASSERT_NE(pa, nullptr);
  cache.unlease(pa);
  dt::ActivationArena* pb = cache.lease(b);
  ASSERT_NE(pb, nullptr);
  cache.unlease(pb);
  EXPECT_EQ(cache.plan_count(), 2U);
  EXPECT_EQ(cache.evictions(), 0);

  // Third shape evicts `a` (least recently used).
  dt::ActivationArena* pc = cache.lease(c);
  ASSERT_NE(pc, nullptr);
  cache.unlease(pc);
  EXPECT_EQ(cache.plan_count(), 2U);
  EXPECT_EQ(cache.evictions(), 1);

  // `a` comes back as a brand-new plan, evicting `b` in turn.
  dt::ActivationArena* pa2 = cache.lease(a);
  ASSERT_NE(pa2, nullptr);
  cache.unlease(pa2);
  EXPECT_EQ(cache.plan_count(), 2U);
  EXPECT_EQ(cache.evictions(), 2);

  // `c` stayed resident: leasing it again is a hit, not a re-record.
  const auto before = dt::arena_stats();
  dt::ActivationArena* pc2 = cache.lease(c);
  ASSERT_NE(pc2, nullptr);
  cache.unlease(pc2);
  const auto after = dt::arena_stats();
  EXPECT_EQ(after.plan_cache_hits - before.plan_cache_hits, 1);
}

// A plan is leased exclusively: a second lease of the same shape while the
// first is out yields nullptr (that round runs arena-less — same bytes,
// just unpooled), and the plan becomes available again after unlease.
TEST(InferenceArena, ConcurrentSameShapeLeaseYieldsNull) {
  dt::InferencePlanCache cache(/*capacity=*/2);
  const dt::Shape shape = {4, 1, 8, 8};
  dt::ActivationArena* first = cache.lease(shape);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.lease(shape), nullptr)
      << "a leased plan must not be handed out twice";
  cache.unlease(first);
  dt::ActivationArena* second = cache.lease(shape);
  EXPECT_EQ(second, first) << "unleased plan should be reusable";
  cache.unlease(second);
}

// Distinct shapes own distinct plans: a narrowed strided batch never pools
// into the full batch's plan.
TEST(InferenceArena, PlanCacheKeysByShape) {
  dt::InferencePlanCache cache(/*capacity=*/4);
  dt::ActivationArena* full = cache.lease({3, 1, 8, 8});
  dt::ActivationArena* narrowed = cache.lease({2, 1, 8, 8});
  ASSERT_NE(full, nullptr);
  ASSERT_NE(narrowed, nullptr);
  EXPECT_NE(full, narrowed);
  cache.unlease(full);
  cache.unlease(narrowed);
}
