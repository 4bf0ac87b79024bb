// Parallel-for facade for the tensor kernels.
//
// All multicore execution in src/tensor and src/nn goes through this header,
// backed by the process-wide common::ComputePool. The determinism contract
// every caller must honor:
//
//   * The body owns the half-open index range it is given: it writes only
//     outputs addressed by those indices and reads no output written by
//     another range.
//   * Any floating-point reduction is confined to a single index (one output
//     row, one normalization group, one batch sample) and runs in a fixed
//     sequential order inside the body.
//
// Under that contract the result is byte-identical for every thread count
// and every chunking, which is what lets diffusion::sample_streams_strided
// promise bit-reproducible output regardless of DIFFPATTERN_THREADS /
// --threads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

namespace diffpattern::tensor {

/// Default minimum number of elementwise operations worth shipping to the
/// pool; below this the dispatch overhead beats the parallel win.
inline constexpr std::int64_t kElementwiseGrain = 16 * 1024;

/// Minimum multiply-accumulates worth one parallel chunk of a GEMM-like
/// region.
inline constexpr std::int64_t kGemmGrainFlops = 32 * 1024;

/// Grain for a region whose every index costs `work_per_index` operations:
/// enough indices that a chunk does at least `min_work` of them, so a
/// region smaller than the fork/join cost runs inline.
inline std::int64_t work_grain(std::int64_t work_per_index,
                               std::int64_t min_work = kElementwiseGrain) {
  return std::max<std::int64_t>(
      1, min_work / std::max<std::int64_t>(1, work_per_index));
}

/// Runs body(chunk_begin, chunk_end) over a partition of [begin, end) on the
/// process-wide compute pool. `grain` is the minimum chunk width; ranges not
/// worth splitting (and nested calls) run inline on the caller.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  std::int64_t grain = 1);

/// parallel_for tuned for flat elementwise loops over `n` elements.
void parallel_elements(
    std::int64_t n,
    const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace diffpattern::tensor
