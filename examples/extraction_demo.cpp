// Extraction demo: run datapath-structure extraction on every standard
// benchmark, score it against the generator's ground truth, and export one
// benchmark's groups + an SVG rendering of its structure.
//
//   ./build/examples/extraction_demo [output_dir]

#include <cstdio>
#include <string>

#include "dpgen/benchmarks.hpp"
#include "eval/svg.hpp"
#include "extract/extractor.hpp"
#include "extract/metrics.hpp"
#include "netlist/bookshelf.hpp"
#include "util/logger.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dp;
  util::Logger::set_level(util::LogLevel::kWarn);
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  util::Table table({"design", "cells", "truth groups", "found", "precision",
                     "recall", "lane acc", "seeds"});

  for (const auto& name : dpgen::standard_benchmarks()) {
    const dpgen::Benchmark bench = dpgen::make_benchmark(name);
    const auto result = extract::extract_structures(bench.netlist);
    const auto quality = extract::compare_extraction(
        bench.netlist, result.annotation, bench.truth);
    table.add_row({name,
                   util::Table::integer(
                       static_cast<long long>(bench.netlist.num_cells())),
                   util::Table::integer(
                       static_cast<long long>(bench.truth.groups.size())),
                   util::Table::integer(
                       static_cast<long long>(quality.groups_found)),
                   util::Table::num(quality.precision, 3),
                   util::Table::num(quality.recall, 3),
                   util::Table::num(quality.lane_accuracy, 3),
                   util::Table::integer(
                       static_cast<long long>(result.seeds_tried))});

    if (name == "dp_alu32") {
      // Export this one for inspection: groups sidecar + SVG with the
      // extracted structure colored over the initial placement.
      netlist::write_groups(out_dir + "/dp_alu32.groups", bench.netlist,
                            result.annotation);
      eval::write_svg(out_dir + "/dp_alu32_structure.svg", bench.netlist,
                      bench.design, bench.placement, &result.annotation);
      std::printf("wrote %s/dp_alu32.groups and dp_alu32_structure.svg\n",
                  out_dir.c_str());
    }
  }

  std::printf("\nDatapath extraction quality vs. ground truth:\n%s",
              table.to_string().c_str());
  return 0;
}
