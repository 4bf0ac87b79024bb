// Fig. 8 — legal patterns from the SAME topology under DIFFERENT design
// rules, without retraining the generator.
//
// The decoupling of topology generation from legalization means a design
// rule change only re-runs the white-box assessment. This bench solves one
// topology under (a) normal rules, (b) larger Space_min, (c) smaller
// Area_max, verifies each result against its own rule set, and reports the
// geometry shifts (minimum realized spacing grows in (b); maximum polygon
// area shrinks in (c)).
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "drc/checker.h"
#include "geometry/components.h"
#include "io/io.h"
#include "legalize/solver.h"

namespace dp = diffpattern;

namespace {

struct Measured {
  dp::geometry::Coord min_space = 0;  // Smallest interior 0-run span.
  dp::geometry::Coord min_width = 0;  // Smallest 1-run span.
  std::int64_t max_area = 0;          // Largest polygon area.
};

Measured measure(const dp::layout::SquishPattern& pattern) {
  Measured out;
  out.min_space = std::numeric_limits<dp::geometry::Coord>::max();
  out.min_width = std::numeric_limits<dp::geometry::Coord>::max();
  const auto& topo = pattern.topology;
  const auto measure_axis = [&](bool rows) {
    const auto lines = rows ? topo.rows() : topo.cols();
    const auto length = rows ? topo.cols() : topo.rows();
    const auto& deltas = rows ? pattern.dx : pattern.dy;
    for (std::int64_t line = 0; line < lines; ++line) {
      std::int64_t i = 0;
      bool seen_shape = false;
      while (i < length) {
        const auto v = rows ? topo.get_unchecked(line, i)
                            : topo.get_unchecked(i, line);
        std::int64_t j = i;
        dp::geometry::Coord span = 0;
        while (j < length) {
          const auto w = rows ? topo.get_unchecked(line, j)
                              : topo.get_unchecked(j, line);
          if (w != v) {
            break;
          }
          span += deltas[static_cast<std::size_t>(j)];
          ++j;
        }
        if (v == 1) {
          out.min_width = std::min(out.min_width, span);
          seen_shape = true;
        } else if (seen_shape && j < length) {
          out.min_space = std::min(out.min_space, span);
        }
        i = j;
      }
    }
  };
  measure_axis(true);
  measure_axis(false);
  const auto analysis = dp::geometry::analyze_components(topo);
  for (const auto& comp : analysis.components) {
    std::int64_t area = 0;
    for (const auto& cell : comp.cells) {
      area += pattern.dx[static_cast<std::size_t>(cell.col)] *
              pattern.dy[static_cast<std::size_t>(cell.row)];
    }
    out.max_area = std::max(out.max_area, area);
  }
  return out;
}

}  // namespace

int main() {
  dp::bench::print_header(
      "Fig. 8 — same topology, different design rules (no retraining)");
  auto& pipeline = dp::bench::shared_trained_pipeline();
  const auto& cfg = pipeline.config();
  const auto out_dir = dp::bench::output_directory();

  dp::geometry::BinaryGrid topology = [&] {
    const auto sampled = dp::bench::service_sample_topologies(8, /*seed=*/8);
    for (const auto& t : sampled) {
      if (dp::legalize::prefilter_topology(t) ==
          dp::legalize::PrefilterVerdict::ok) {
        return t;
      }
    }
    return pipeline.dataset().patterns.front().topology;
  }();

  struct RuleCase {
    std::string name;
    dp::drc::DesignRules rules;
    std::string file;
  };
  const std::vector<RuleCase> cases = {
      {"(a) normal rules", dp::drc::standard_rules(), "fig8_a_normal.pgm"},
      {"(b) larger Space_min", dp::drc::larger_space_rules(),
       "fig8_b_space.pgm"},
      {"(c) smaller Area_max", dp::drc::smaller_area_rules(),
       "fig8_c_area.pgm"},
  };

  dp::common::Rng rng(23);
  std::cout << std::left << std::setw(24) << "Rule set" << std::right
            << std::setw(10) << "DRC" << std::setw(14) << "min space"
            << std::setw(14) << "min width" << std::setw(14) << "max area"
            << "\n" << std::string(76, '-') << "\n";
  std::ostringstream csv;
  csv << "rules,space_min,area_max,solved,min_space,min_width,max_area\n";
  for (const auto& rule_case : cases) {
    dp::legalize::SolverConfig solver;
    const auto result = dp::legalize::legalize_topology(
        topology, rule_case.rules, cfg.datagen.tile, cfg.datagen.tile, solver,
        rng, &pipeline.dataset().library);
    if (!result.success) {
      std::cout << std::left << std::setw(24) << rule_case.name
                << "  infeasible under these rules ("
                << result.failure_reason << ")\n";
      csv << rule_case.name << ',' << rule_case.rules.space_min << ','
          << rule_case.rules.area_max << ",0,,,\n";
      continue;
    }
    const bool clean =
        dp::drc::check_pattern(result.pattern, rule_case.rules).clean();
    const auto measured = measure(result.pattern);
    std::cout << std::left << std::setw(24) << rule_case.name << std::right
              << std::setw(10) << (clean ? "clean" : "DIRTY") << std::setw(14)
              << measured.min_space << std::setw(14) << measured.min_width
              << std::setw(14) << measured.max_area << "\n";
    dp::io::write_pattern_pgm(out_dir + "/" + rule_case.file, result.pattern,
                              256);
    csv << rule_case.name << ',' << rule_case.rules.space_min << ','
        << rule_case.rules.area_max << ",1," << measured.min_space << ','
        << measured.min_width << ',' << measured.max_area << "\n";
  }
  std::cout << "\nExpected shape: (b) realizes min space >= "
            << dp::drc::larger_space_rules().space_min
            << " nm; (c) realizes max polygon area <= "
            << dp::drc::smaller_area_rules().area_max
            << " nm^2 — all from the SAME topology with no retraining.\n";
  dp::io::write_text_file(out_dir + "/fig8_rules.csv", csv.str());
  std::cout << "Renders written to " << out_dir << "/fig8_*.pgm\n";
  return 0;
}
