// Building your own design with the generator API and exporting it in the
// Bookshelf format: a 16-bit MAC-like datapath (multiplier feeding a
// pipelined accumulator) plus control logic, placed with the
// structure-aware flow and written out as .aux/.nodes/.nets/.pl/.scl plus
// a .groups sidecar with the extracted structure.
//
//   ./build/examples/custom_datapath [output_dir]

#include <cstdio>
#include <string>

#include "core/structure_placer.hpp"
#include "dpgen/generator.hpp"
#include "netlist/bookshelf.hpp"
#include "util/logger.hpp"

int main(int argc, char** argv) {
  using namespace dp;
  util::Logger::set_level(util::LogLevel::kInfo);
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  // ---- construct the design ------------------------------------------------
  dpgen::Generator gen("mac16", /*seed=*/2024);
  gen.add_control_block("ctl", 120);

  dpgen::Bus a = gen.input_bus("a", 16);
  dpgen::Bus b = gen.input_bus("b", 16);
  dpgen::Bus prod = gen.add_multiplier("mul", a, b);
  dpgen::Bus acc = gen.add_pipelined_adder("acc", prod, prod, /*depth=*/2);
  gen.output_bus("mac", acc);

  auto glue_outs = gen.add_glue(
      "status", 200, std::vector<netlist::NetId>(acc.begin(), acc.end()));
  gen.output_bus("status", dpgen::Bus(glue_outs.begin(), glue_outs.end()));

  dpgen::Benchmark bench = gen.finish(/*utilization=*/0.7);
  std::printf("built %s: %zu cells, %zu nets, %zu ground-truth groups\n",
              bench.name.c_str(), bench.netlist.num_cells(),
              bench.netlist.num_nets(), bench.truth.groups.size());

  // ---- place ---------------------------------------------------------------
  core::PlacerConfig config;
  config.structure_aware = true;
  core::StructurePlacer placer(bench.netlist, bench.design, config);
  netlist::Placement pl = bench.placement;
  const core::PlaceReport rep = placer.place(pl, &bench.truth);
  std::printf("placed: hpwl=%.1f, %zu groups extracted, misalign vs truth="
              "%.2f rows, legal=%s\n",
              rep.hpwl_final, rep.structure.groups.size(),
              eval::alignment_score(bench.netlist, pl, bench.truth)
                  .rms_misalignment,
              rep.legality.legal() ? "yes" : "NO");

  // ---- export ---------------------------------------------------------------
  const std::string base = out_dir + "/mac16";
  netlist::write_bookshelf(base, bench.netlist, bench.design, pl);
  netlist::write_groups(base + ".groups", bench.netlist, rep.structure);
  std::printf("wrote %s.{aux,nodes,nets,pl,scl,groups}\n", base.c_str());

  // Round-trip sanity: read it back and compare cell count.
  const auto loaded = netlist::read_bookshelf(base + ".aux");
  std::printf("round-trip: %zu cells, %zu nets\n",
              loaded.netlist.num_cells(), loaded.netlist.num_nets());
  return 0;
}
