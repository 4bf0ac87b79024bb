// dpbench — the benchmark's measurement binary (driven by benchmark/run.py).
//
//   dpbench setup --checkpoint PATH
//       Deterministic set-up: dataset + fixed-budget training; saves the
//       model and prints one JSON line of set-up timings.
//   dpbench run --workload NAME --seed N --seconds N --trace 0|1
//               --checkpoint PATH [--trace-out PATH]
//       Runs one workload against the saved model and prints one JSON line
//       of raw samples and counts (run.py turns them into metrics).
//   dpbench plan --workload NAME --seed N --seconds N
//       Prints the workload's request plan (used by the byte-stability
//       tests).
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "plan.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "dpbench: " << why << "\n"
            << "usage: dpbench setup --checkpoint PATH\n"
            << "       dpbench run --workload NAME --seed N --seconds N "
               "--trace 0|1 --checkpoint PATH [--trace-out PATH]\n"
            << "       dpbench plan --workload NAME --seed N --seconds N\n";
  return 2;
}

bool parse_int(const std::string& text, std::int64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoll(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage("missing command");
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("malformed flag " + key);
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto flag = [&](const char* name) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };

  try {
    if (command == "setup") {
      if (flag("checkpoint").empty()) {
        return usage("setup needs --checkpoint");
      }
      std::cout << dpbench::run_setup(flag("checkpoint")) << std::endl;
      return 0;
    }
    dpbench::RunOptions options;
    std::int64_t seed = 0;
    std::int64_t trace = 0;
    if (!dpbench::parse_workload(flag("workload"), options.workload)) {
      return usage("unknown workload '" + flag("workload") + "'");
    }
    if (!parse_int(flag("seed"), seed) || seed < 0 ||
        !parse_int(flag("seconds"), options.seconds) || options.seconds < 1) {
      return usage("--seed must be >= 0 and --seconds >= 1");
    }
    options.seed = static_cast<std::uint64_t>(seed);
    if (command == "plan") {
      std::cout << dpbench::plan_to_text(dpbench::make_plan(
          options.workload, options.seed, options.seconds));
      return 0;
    }
    if (command != "run") {
      return usage("unknown command '" + command + "'");
    }
    if (!parse_int(flag("trace"), trace) || (trace != 0 && trace != 1)) {
      return usage("--trace must be 0 or 1");
    }
    if (flag("checkpoint").empty()) {
      return usage("run needs --checkpoint");
    }
    options.trace = trace == 1;
    options.checkpoint = flag("checkpoint");
    options.trace_out = flag("trace-out");
    std::cout << dpbench::run_workload(options) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dpbench: " << e.what() << "\n";
    return 1;
  }
}
