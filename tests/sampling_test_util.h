// Stream setup shared by the sampler suites: every test drives
// diffusion::sample_streams_strided the way the service does, with one
// derive_seed RNG stream per slot.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "diffusion/diffusion.h"

namespace diffpattern::testutil {

/// Samples strides.size() square side x side slots in one fused batch. Slot
/// i walks at strides[i] and draws from derive_seed(seed, stream, i).
inline tensor::Tensor sample_slots(
    unet::UNet& model, const diffusion::BinarySchedule& schedule,
    std::int64_t side, const std::vector<std::int64_t>& strides,
    std::uint64_t seed, std::uint64_t stream,
    const diffusion::RoundHook& hook = nullptr,
    const diffusion::SampleObserver& observer = nullptr) {
  std::vector<common::Rng> streams;
  streams.reserve(strides.size());
  for (std::uint64_t slot = 0; slot < strides.size(); ++slot) {
    streams.emplace_back(common::derive_seed(seed, stream, slot));
  }
  std::vector<common::Rng*> ptrs;
  for (auto& s : streams) {
    ptrs.push_back(&s);
  }
  return diffusion::sample_streams_strided(model, schedule, side, side,
                                           diffusion::SamplerConfig{}, ptrs,
                                           strides, hook, observer);
}

/// `count` slots that all walk at `stride` (1 = the full schedule).
inline std::vector<std::int64_t> uniform_strides(std::int64_t count,
                                                 std::int64_t stride = 1) {
  return std::vector<std::int64_t>(static_cast<std::size_t>(count), stride);
}

}  // namespace diffpattern::testutil
