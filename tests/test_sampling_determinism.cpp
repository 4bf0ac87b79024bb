// Sampling determinism: diffusion::sample_streams_strided must emit
// byte-identical topologies for the same per-slot RNG streams and strides
// no matter how many threads the compute pool runs and no matter which SIMD
// kernel backend dispatch selects — the guarantee that lets the service scale the
// reverse-diffusion hot path without perturbing any request's output. A
// pinned FNV-1a golden digest of the sampled bytes turns silent cross-PR
// byte drift into a loud failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "diffusion/diffusion.h"
#include "sampling_test_util.h"
#include "tensor/arena.h"
#include "tensor/simd.h"
#include "ulp_test_util.h"

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
  // Attention on the coarse level so the softmax/bmm kernels are on the
  // path whose thread-invariance is being asserted.
  cfg.attention_levels = {1};
  cfg.dropout = 0.0F;
  return cfg;
}

// Schedule lengths the invariance checks run at. At K = 6 the signal lasts
// to the end of the schedule (K_eps == K for every K <= 16), so the chain
// is not truncated; at K = 20 it starts at K_eps = 18.
constexpr std::int64_t kScheduleSteps[] = {6, 20};

// Per-slot seed derivation shared by every run below. Each run builds
// fresh streams: comparisons are across thread counts, backends and pooled
// vs unpooled rounds, so every run must consume identical randomness.
constexpr std::uint64_t kSeed = 424242;
constexpr std::uint64_t kStream = 7;

// One slot per entry of `strides`, on a compute pool of `threads`.
Tensor run_strided(du::UNet& model, const dd::BinarySchedule& schedule,
                   const std::vector<std::int64_t>& strides,
                   std::int64_t threads,
                   const dd::RoundHook& hook = nullptr) {
  EXPECT_TRUE(dc::set_global_compute_threads(threads).ok());
  return diffpattern::testutil::sample_slots(model, schedule, /*side=*/8,
                                             strides, kSeed, kStream, hook);
}

// Three slots over the full schedule (stride 1): the bytes the full-schedule
// golden digest pins.
Tensor run_full_schedule(du::UNet& model, const dd::BinarySchedule& schedule,
                         std::int64_t threads) {
  return run_strided(model, schedule, {1, 1, 1}, threads);
}

std::uint64_t fnv1a64(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t digest(const Tensor& t) {
  return fnv1a64(t.data(), static_cast<std::size_t>(t.numel()) *
                               sizeof(float));
}

using diffpattern::testutil::BackendGuard;
using diffpattern::testutil::supported_backends;

// Runs `run` while holding the plan leases for `shapes`, as a concurrent
// same-shape round would: every sampler round at one of those shapes finds
// its plan busy and takes the lease-conflict fallback, i.e. runs unpooled.
// Returns the unpooled result and checks that the rounds did take that path.
template <class Run>
Tensor run_with_plans_held(du::UNet& model,
                           const std::vector<dt::Shape>& shapes, Run&& run) {
  auto& cache = model.plan_cache();
  std::vector<dt::ActivationArena*> held;
  for (const auto& shape : shapes) {
    held.push_back(cache.lease(shape));
    EXPECT_NE(held.back(), nullptr);
  }
  const auto before = dt::arena_stats();
  Tensor result = run();
  const auto after = dt::arena_stats();
  for (auto* arena : held) {
    cache.unlease(arena);
  }
  EXPECT_GT(after.plan_cache_misses, before.plan_cache_misses)
      << "no round hit the held plans' lease conflict";
  EXPECT_EQ(after.plan_cache_hits, before.plan_cache_hits)
      << "a round leased a plan while every plan it could use was held";
  return result;
}

// Solo run of ONE slot with the stream that slot `slot` carries in a fused
// run — the reference for fusion-invariance checks.
Tensor run_solo_slot(du::UNet& model, const dd::BinarySchedule& schedule,
                     std::uint64_t slot, std::int64_t stride) {
  dc::Rng stream(dc::derive_seed(kSeed, kStream, slot));
  std::vector<dc::Rng*> ptrs{&stream};
  return dd::sample_streams_strided(model, schedule, /*height=*/8,
                                    /*width=*/8, dd::SamplerConfig{}, ptrs,
                                    {stride});
}

}  // namespace

TEST(SamplingDeterminism, FullScheduleByteIdenticalAcrossThreadCounts) {
  du::UNet model(micro_config(), /*seed=*/91);
  for (const auto steps : kScheduleSteps) {
    dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = steps});
    const Tensor at_1 = run_full_schedule(model, schedule, 1);
    const auto bytes =
        static_cast<std::size_t>(at_1.numel()) * sizeof(float);
    for (const std::int64_t threads : {2, 4, 8}) {
      const Tensor at_n = run_full_schedule(model, schedule, threads);
      ASSERT_TRUE(at_1.same_shape(at_n));
      EXPECT_EQ(std::memcmp(at_1.data(), at_n.data(), bytes), 0)
          << "K=" << steps << ": 1-thread vs " << threads
          << "-thread sampling diverged";
    }
  }
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

TEST(SamplingDeterminism, FullScheduleByteIdenticalAcrossKernelBackends) {
  BackendGuard guard;
  du::UNet model(micro_config(), /*seed=*/91);
  for (const auto steps : kScheduleSteps) {
    dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = steps});
    ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                    diffpattern::tensor::KernelBackend::kScalar)
                    .ok());
    const Tensor scalar_out = run_full_schedule(model, schedule, 1);
    for (const auto backend : supported_backends()) {
      if (backend == diffpattern::tensor::KernelBackend::kScalar) {
        continue;
      }
      ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(backend).ok());
      const Tensor vector_out = run_full_schedule(model, schedule, 1);
      ASSERT_TRUE(scalar_out.same_shape(vector_out));
      EXPECT_EQ(std::memcmp(scalar_out.data(), vector_out.data(),
                            static_cast<std::size_t>(scalar_out.numel()) *
                                sizeof(float)),
                0)
          << "K=" << steps << ": scalar vs "
          << diffpattern::tensor::kernel_backend_label(backend)
          << " sampling diverged";
    }
  }
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// Golden determinism regression: the FNV-1a digest of the sampled bytes for
// this fixed (model seed, RNG seed, count) is pinned. It is computed under
// forced scalar dispatch and 1 thread — the canonical semantics every
// backend must reproduce — so the constant is host-independent (modulo the
// host libm's exp/tanh, which CI holds fixed). If this fails after a kernel
// change, the PR changed the canonical accumulation semantics: that must be
// an explicit, called-out decision (update the constant in its own commit
// line), never a silent rebaseline.
TEST(SamplingDeterminism, GoldenDigestPinnedUnderScalarDispatch) {
  BackendGuard guard;
  ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                  diffpattern::tensor::KernelBackend::kScalar)
                  .ok());
  du::UNet model(micro_config(), /*seed=*/91);
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 6});
  const std::uint64_t run1 = digest(run_full_schedule(model, schedule, 1));
  const std::uint64_t run2 = digest(run_full_schedule(model, schedule, 1));
  EXPECT_EQ(run1, run2) << "same-process replay diverged";
  const std::uint64_t threaded =
      digest(run_full_schedule(model, schedule, 8));
  EXPECT_EQ(run1, threaded) << "thread count leaked into the bytes";
  constexpr std::uint64_t kGoldenDigest = 0x7373f45c5b440cb3ULL;
  EXPECT_EQ(run1, kGoldenDigest)
      << "sampled bytes drifted from the pinned golden digest";
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// The load-bearing fusion guarantee: a slot's bytes are a pure function of
// (model, stream, stride) — mixing it into one fused batch with slots of
// OTHER strides (which drop out of rounds its subsequence skips, narrowing
// the batch) must not perturb it. Each fused slot is compared against a
// solo run carrying the same stream.
TEST(SamplingDeterminism, FusedMixedStridesByteIdenticalToSoloRuns) {
  BackendGuard guard;
  ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                  diffpattern::tensor::KernelBackend::kScalar)
                  .ok());
  du::UNet model(micro_config(), /*seed=*/91);
  const std::vector<std::int64_t> strides = {1, 2, 4};
  for (const auto steps : kScheduleSteps) {
    dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = steps});
    const Tensor fused = run_strided(model, schedule, strides, 1);
    const auto slot_floats =
        static_cast<std::size_t>(fused.numel() / fused.shape()[0]);
    for (std::uint64_t slot = 0; slot < strides.size(); ++slot) {
      const Tensor solo =
          run_solo_slot(model, schedule, slot, strides[slot]);
      ASSERT_EQ(static_cast<std::size_t>(solo.numel()), slot_floats);
      EXPECT_EQ(std::memcmp(fused.data() + slot * slot_floats, solo.data(),
                            slot_floats * sizeof(float)),
                0)
          << "K=" << steps << ": slot " << slot << " (stride "
          << strides[slot] << ") changed bytes when fused with other strides";
    }
  }
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// Mixed strides carry the same determinism contract as the full schedule:
// thread count and kernel backend never reach the bytes.
TEST(SamplingDeterminism, StridedByteIdenticalAcrossThreadsAndBackends) {
  BackendGuard guard;
  du::UNet model(micro_config(), /*seed=*/91);
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 6});
  const std::vector<std::int64_t> strides = {1, 2, 4};
  ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                  diffpattern::tensor::KernelBackend::kScalar)
                  .ok());
  const Tensor at_1 = run_strided(model, schedule, strides, 1);
  const Tensor at_8 = run_strided(model, schedule, strides, 8);
  const auto bytes = static_cast<std::size_t>(at_1.numel()) * sizeof(float);
  ASSERT_TRUE(at_1.same_shape(at_8));
  EXPECT_EQ(std::memcmp(at_1.data(), at_8.data(), bytes), 0)
      << "thread count leaked into strided sampling bytes";
  for (const auto backend : supported_backends()) {
    if (backend == diffpattern::tensor::KernelBackend::kScalar) {
      continue;
    }
    ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(backend).ok());
    const Tensor vec = run_strided(model, schedule, strides, 1);
    ASSERT_TRUE(at_1.same_shape(vec));
    EXPECT_EQ(std::memcmp(at_1.data(), vec.data(), bytes), 0)
        << "scalar vs "
        << diffpattern::tensor::kernel_backend_label(backend)
        << " strided sampling diverged";
  }
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// The narrowing schedule itself: with K = 6 and strides {1, 4}, the
// stride-4 slot participates in rounds k = 6 and k = 2 only (6 -> 2 ->
// done), so the fused batch runs [2, 1, 1, 1, 2, 1] — 8 slot-evaluations
// instead of 12. The hook feeding fill-ratio accounting must see exactly
// this sequence.
TEST(SamplingDeterminism, StridedRoundHookReportsNarrowingBatches) {
  BackendGuard guard;
  ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                  diffpattern::tensor::KernelBackend::kScalar)
                  .ok());
  du::UNet model(micro_config(), /*seed=*/91);
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 6});
  std::vector<std::pair<std::int64_t, std::int64_t>> rounds;
  run_strided(model, schedule, {1, 4}, 1,
              [&rounds](std::int64_t k, std::int64_t batch) {
                rounds.emplace_back(k, batch);
              });
  const std::vector<std::pair<std::int64_t, std::int64_t>> expected = {
      {6, 2}, {5, 1}, {4, 1}, {3, 1}, {2, 2}, {1, 1}};
  EXPECT_EQ(rounds, expected);
  std::int64_t evals = 0;
  for (const auto& [k, batch] : rounds) {
    evals += batch;
  }
  EXPECT_EQ(evals, 8) << "expected 8 slot-evaluations, not 12";
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// Golden digests for the strided walks themselves, pinned under scalar
// dispatch and 1 thread like kGoldenDigest above: coarse schedules are part
// of the byte-determinism contract, so their bytes get the same cross-PR
// drift tripwire as the full schedule.
TEST(SamplingDeterminism, StridedGoldenDigestsPinnedUnderScalarDispatch) {
  BackendGuard guard;
  ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                  diffpattern::tensor::KernelBackend::kScalar)
                  .ok());
  du::UNet model(micro_config(), /*seed=*/91);
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 6});
  const std::uint64_t stride2 =
      digest(run_strided(model, schedule, {2, 2, 2}, 1));
  const std::uint64_t stride4 =
      digest(run_strided(model, schedule, {4, 4, 4}, 1));
  constexpr std::uint64_t kGoldenStride2 = 0x65e920d3f743caaULL;
  constexpr std::uint64_t kGoldenStride4 = 0xe86fe1f4f5d925daULL;
  EXPECT_EQ(stride2, kGoldenStride2)
      << "stride-2 bytes drifted from the pinned golden digest";
  EXPECT_EQ(stride4, kGoldenStride4)
      << "stride-4 bytes drifted from the pinned golden digest";
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// The inference memory plan is a pure allocation strategy: it must never
// reach the bytes. Pooled rounds and unpooled rounds (the plan held by
// another lease) have to land on the SAME pinned golden digest — if the
// pooled digest moved, the plan perturbed floating-point results; if the
// unpooled digest moved, the lease-conflict fallback did.
TEST(SamplingDeterminism, ArenaOnAndOffPinnedToSameGoldenDigest) {
  BackendGuard backend_guard;
  ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                  diffpattern::tensor::KernelBackend::kScalar)
                  .ok());
  du::UNet model(micro_config(), /*seed=*/91);
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 6});
  constexpr std::uint64_t kGoldenDigest = 0x7373f45c5b440cb3ULL;
  EXPECT_EQ(digest(run_full_schedule(model, schedule, 1)), kGoldenDigest)
      << "pooled bytes drifted from the pinned golden digest";
  const Tensor unpooled = run_with_plans_held(model, {{3, 1, 8, 8}}, [&] {
    return run_full_schedule(model, schedule, 1);
  });
  EXPECT_EQ(digest(unpooled), kGoldenDigest)
      << "unpooled bytes drifted from the pinned golden digest";
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// Pooled vs unpooled byte identity across kernel backends and thread
// counts: the recycled buffers must be invisible no matter which kernels
// write into them or how many pool workers share the round.
TEST(SamplingDeterminism, ArenaByteIdenticalAcrossBackendsAndThreads) {
  BackendGuard backend_guard;
  du::UNet model(micro_config(), /*seed=*/91);
  for (const auto steps : kScheduleSteps) {
    dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = steps});
    ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                    diffpattern::tensor::KernelBackend::kScalar)
                    .ok());
    const std::uint64_t reference =
        digest(run_with_plans_held(model, {{3, 1, 8, 8}}, [&] {
          return run_full_schedule(model, schedule, 1);
        }));
    for (const auto backend : supported_backends()) {
      ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(backend).ok());
      for (const std::int64_t threads : {1, 4, 8}) {
        EXPECT_EQ(digest(run_full_schedule(model, schedule, threads)),
                  reference)
            << "K=" << steps << ": pooled sampling diverged from "
            << "unpooled under "
            << diffpattern::tensor::kernel_backend_label(backend) << " with "
            << threads << " thread(s)";
      }
    }
  }
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// Mixed-stride fused batches narrow mid-job, so rounds lease differently
// shaped plans back to back (batch 3, then 2, then 1...). The plan churn
// must not perturb any slot: pooled fused bytes must equal unpooled ones.
TEST(SamplingDeterminism, ArenaByteIdenticalOnMixedStrideFusedBatches) {
  BackendGuard backend_guard;
  ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                  diffpattern::tensor::KernelBackend::kScalar)
                  .ok());
  du::UNet model(micro_config(), /*seed=*/91);
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 6});
  const std::vector<std::int64_t> strides = {1, 2, 4};
  const Tensor reference = run_with_plans_held(
      model, {{1, 1, 8, 8}, {2, 1, 8, 8}, {3, 1, 8, 8}},
      [&] { return run_strided(model, schedule, strides, 1); });
  const Tensor with_arena = run_strided(model, schedule, strides, 1);
  ASSERT_TRUE(reference.same_shape(with_arena));
  EXPECT_EQ(std::memcmp(reference.data(), with_arena.data(),
                        static_cast<std::size_t>(reference.numel()) *
                            sizeof(float)),
            0)
      << "activation arena changed mixed-stride fused sampling bytes";
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

// Golden digest of the truncated full-schedule walk (K = 20, stride 1: 18
// rounds from K_eps = 18), pinned under scalar dispatch and 1 thread like
// kGoldenDigest. It guards the plan start and the prior drawn there, which
// the K = 6 digests cannot see.
TEST(SamplingDeterminism, TruncatedGoldenDigestPinnedUnderScalarDispatch) {
  BackendGuard guard;
  ASSERT_TRUE(diffpattern::tensor::set_kernel_backend(
                  diffpattern::tensor::KernelBackend::kScalar)
                  .ok());
  du::UNet model(micro_config(), /*seed=*/91);
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 20});
  constexpr std::uint64_t kGoldenTruncated = 0x898788ca310b64b3ULL;
  EXPECT_EQ(digest(run_full_schedule(model, schedule, 1)), kGoldenTruncated)
      << "truncated-chain bytes drifted from the pinned golden digest";
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}
