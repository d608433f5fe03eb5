// Quickstart: generate a small datapath-intensive design, place it with the
// structure-oblivious baseline and with the structure-aware flow, and
// compare wirelength, legality, and datapath alignment.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "util/logger.hpp"

int main() {
  using namespace dp;
  util::Logger::set_level(util::LogLevel::kInfo);

  // A 32-bit two-stage pipelined-adder design with control glue.
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  std::printf("design %s: %zu cells, %zu nets, %zu movable\n",
              bench.name.c_str(), bench.netlist.num_cells(),
              bench.netlist.num_nets(), bench.netlist.num_movable());

  auto run = [&](bool structure_aware) {
    core::PlacerConfig config;
    config.structure_aware = structure_aware;
    core::StructurePlacer placer(bench.netlist, bench.design, config);
    netlist::Placement pl = bench.placement;  // pads fixed, movables parked
    core::PlaceReport rep = placer.place(pl, &bench.truth);
    // Both flows are scored against the generator's ground-truth groups.
    std::printf(
        "%-9s hpwl=%9.1f truth dp_hpwl=%9.1f misalign=%5.2f rows  legal=%s  "
        "(gp %.2fs, legal %.2fs, dp %.2fs)\n",
        structure_aware ? "struct:" : "baseline:", rep.hpwl_final,
        eval::datapath_hpwl(bench.netlist, pl, bench.truth),
        eval::alignment_score(bench.netlist, pl, bench.truth).rms_misalignment,
        rep.legality.legal() ? "yes" : "NO", rep.t_gp, rep.t_legal,
        rep.t_detail);
    return rep;
  };

  const auto base = run(false);
  const auto sa = run(true);
  std::printf("HPWL improvement: %.1f%%\n",
              100.0 * (base.hpwl_final - sa.hpwl_final) / base.hpwl_final);
  return 0;
}
