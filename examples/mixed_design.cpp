// Mixed-design walkthrough: place a design that is half datapath and half
// random control logic with the baseline flow and the structure-aware flow;
// compare wirelength, datapath wirelength, alignment, and runtime. Writes
// SVG renderings of both placements.
//
//   ./build/examples/mixed_design [output_dir]

#include <cstdio>
#include <string>

#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "eval/svg.hpp"
#include "util/logger.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dp;
  util::Logger::set_level(util::LogLevel::kWarn);
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  const dpgen::Benchmark bench = dpgen::make_mix(0.5, 2000);
  std::printf("design %s: %zu cells (%zu datapath), %zu nets\n",
              bench.name.c_str(), bench.netlist.num_cells(),
              bench.truth.total_cells(), bench.netlist.num_nets());

  util::Table table({"flow", "HPWL", "truth dp HPWL",
                     "truth misalign [rows]", "legal", "time [s]"});

  struct Variant {
    const char* name;
    bool structure_aware;
  };
  const Variant variants[] = {{"baseline", false}, {"sa-gentle", true}};

  for (const Variant& v : variants) {
    core::PlacerConfig config;
    config.structure_aware = v.structure_aware;
    core::StructurePlacer placer(bench.netlist, bench.design, config);
    netlist::Placement pl = bench.placement;
    const core::PlaceReport rep = placer.place(pl, &bench.truth);
    const double dp_hpwl = eval::datapath_hpwl(bench.netlist, pl, bench.truth);
    const eval::AlignmentScore align =
        eval::alignment_score(bench.netlist, pl, bench.truth);
    table.add_row({v.name, util::Table::num(rep.hpwl_final, 0),
                   util::Table::num(dp_hpwl, 0),
                   util::Table::num(align.rms_misalignment, 2),
                   rep.legality.legal() ? "yes" : "NO",
                   util::Table::num(rep.t_total, 2)});
    eval::write_svg(out_dir + "/mixed_" + v.name + ".svg", bench.netlist,
                    bench.design, pl,
                    v.structure_aware ? &rep.structure : &bench.truth);
  }

  std::printf("\n%s\nSVGs written to %s/mixed_*.svg\n",
              table.to_string().c_str(), out_dir.c_str());
  return 0;
}
