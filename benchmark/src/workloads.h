// The benchmark's measurement engine: deterministic set-up, the two
// workloads driven through the public service / router API, the output
// checks, and the traced layer-by-layer replay.
#pragma once

#include <cstdint>
#include <string>

#include "plan.h"

namespace dpbench {

/// Trains the benchmark model (fixed seed, fixed iteration budget) and
/// saves it to `checkpoint_path`. Returns a one-line JSON object with the
/// set-up timings, the final training loss and the checkpoint digest.
std::string run_setup(const std::string& checkpoint_path);

struct RunOptions {
  Workload workload = Workload::kServeFused;
  std::uint64_t seed = 0;
  std::int64_t seconds = 1;
  bool trace = false;
  std::string checkpoint;
  /// Where the traced replay writes its spans (trace runs only).
  std::string trace_out;
};

/// Brings the system up on the saved checkpoint, runs the workload's fixed
/// request plan, checks every output, and (trace runs) replays the plan
/// layer by layer. Returns one JSON object of raw samples and counts.
std::string run_workload(const RunOptions& options);

}  // namespace dpbench
