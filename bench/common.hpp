#pragma once

// Shared helpers for the table/figure regeneration harnesses. Each bench
// binary prints the rows/series of one reconstructed table or figure of
// the paper (see DESIGN.md section 4 for the experiment index).

#include <cstdio>
#include <string>

#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "util/logger.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace dp::bench {

enum class Flow { kBaseline, kGentle, kBlocks };

inline const char* flow_name(Flow flow) {
  switch (flow) {
    case Flow::kBaseline: return "baseline";
    case Flow::kGentle: return "sa-gentle";
    case Flow::kBlocks: return "sa-blocks";
  }
  return "?";
}

inline core::PlacerConfig flow_config(Flow flow) {
  core::PlacerConfig config;
  config.structure_aware = flow != Flow::kBaseline;
  config.legalization = flow == Flow::kBlocks
                            ? core::LegalizationMode::kStructured
                            : core::LegalizationMode::kGentle;
  return config;
}

struct FlowResult {
  core::PlaceReport report;
  netlist::Placement placement;
  double seconds = 0.0;
};

inline FlowResult run_flow(const dpgen::Benchmark& bench,
                           core::PlacerConfig config) {
  FlowResult out;
  core::StructurePlacer placer(bench.netlist, bench.design, config);
  out.placement = bench.placement;
  util::Timer timer;
  out.report = placer.place(out.placement, &bench.truth);
  out.seconds = timer.seconds();
  return out;
}

inline FlowResult run_flow(const dpgen::Benchmark& bench, Flow flow) {
  return run_flow(bench, flow_config(flow));
}

/// Standard deviation of datapath-net HPWLs: the "wire predictability"
/// metric -- regular placements give near-identical per-bit wires.
inline double datapath_net_stdev(const dpgen::Benchmark& bench,
                                 const netlist::Placement& pl,
                                 const netlist::StructureAnnotation& groups) {
  const auto member = groups.membership(bench.netlist.num_cells());
  std::vector<double> lengths;
  for (netlist::NetId n = 0; n < bench.netlist.num_nets(); ++n) {
    bool touches = false;
    for (auto p : bench.netlist.net(n).pins) {
      if (member[bench.netlist.pin(p).cell]) {
        touches = true;
        break;
      }
    }
    if (touches) lengths.push_back(eval::net_hpwl(bench.netlist, n, pl));
  }
  return std::sqrt(util::variance(lengths));
}

inline void quiet_logs() { util::Logger::set_level(util::LogLevel::kError); }

}  // namespace dp::bench
