#pragma once

// Shared helpers for the table/figure regeneration harnesses. Each bench
// binary prints the rows/series of one reconstructed table or figure of
// the paper (see DESIGN.md section 4 for the experiment index).

#include <cmath>
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

enum class Flow { kBaseline, kGentle };

inline const char* flow_name(Flow flow) {
  switch (flow) {
    case Flow::kBaseline: return "baseline";
    case Flow::kGentle: return "sa-gentle";
  }
  return "?";
}

inline core::PlacerConfig flow_config(Flow flow) {
  core::PlacerConfig config;
  config.structure_aware = flow != Flow::kBaseline;
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

/// A placement scored against the generator's ground-truth groups: one
/// reference for every flow, whatever groups the flow itself placed.
struct TruthScore {
  double datapath_hpwl = 0.0;
  double misalign = 0.0;  ///< RMS misalignment, rows
  /// Standard deviation of datapath-net HPWLs: the "wire predictability"
  /// metric -- regular placements give near-identical per-bit wires.
  double net_stdev = 0.0;
};

inline TruthScore truth_score(const dpgen::Benchmark& bench,
                              const netlist::Placement& pl) {
  const netlist::Netlist& nl = bench.netlist;
  const auto member = bench.truth.membership(nl.num_cells());
  std::vector<double> lengths;
  TruthScore score;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    for (const netlist::PinId p : nl.net_pins(n)) {
      if (!member[nl.pin(p).cell]) continue;
      lengths.push_back(eval::net_hpwl(nl, n, pl));
      score.datapath_hpwl += nl.net(n).weight * lengths.back();
      break;
    }
  }
  score.misalign =
      eval::alignment_score(nl, pl, bench.truth).rms_misalignment;
  score.net_stdev = std::sqrt(util::variance(lengths));
  return score;
}

inline void quiet_logs() { util::Logger::set_level(util::LogLevel::kError); }

}  // namespace dp::bench
