#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "netlist/bookshelf.hpp"

namespace dp::core {
namespace {

using netlist::Placement;

struct Pipe {
  explicit Pipe(const std::string& name)
      : bench(dpgen::make_benchmark(name)) {}

  PlaceReport run(PlacerConfig config) {
    StructurePlacer placer(bench.netlist, bench.design, config);
    pl = bench.placement;
    return placer.place(pl, &bench.truth);
  }

  dpgen::Benchmark bench;
  Placement pl;
};

TEST(StructurePlacer, BaselineIsLegalAndFinite) {
  Pipe pipe("dp_add32");
  PlacerConfig c;
  c.structure_aware = false;
  const PlaceReport rep = pipe.run(c);
  EXPECT_TRUE(rep.legality.legal());
  EXPECT_GT(rep.hpwl_final, 0.0);
  EXPECT_TRUE(rep.structure.groups.empty());
  EXPECT_GT(rep.gp_result.trace.size(), 0u);
}

TEST(StructurePlacer, GentleFlowLegalAndAligned) {
  Pipe pipe("dp_add32");
  PlacerConfig c;
  c.structure_aware = true;
  const PlaceReport rep = pipe.run(c);
  EXPECT_TRUE(rep.legality.legal());
  EXPECT_FALSE(rep.structure.groups.empty());
  // The whole point: far better alignment than the baseline's ~4 rows.
  EXPECT_LT(rep.alignment.rms_misalignment, 1.5);
  // Against dpgen's ground truth (the baseline reads 4.29 rows there):
  // 1.98 rows when this bar was set, plus a margin of about 0.2.
  EXPECT_LT(eval::alignment_score(pipe.bench.netlist, pipe.pl,
                                  pipe.bench.truth)
                .rms_misalignment,
            2.2);
}

// The template-block flow is deleted; asking for it is an error, not a
// quiet run of the one flow that remains.
TEST(StructurePlacer, RejectsTheRemovedTemplateBlockFlow) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  PlacerConfig c;
  c.legalization = LegalizationMode::kStructured;
  EXPECT_THROW(StructurePlacer(bench.netlist, bench.design, c),
               std::invalid_argument);
}

// Every GP run of a flow adds its evaluation count next to its profile
// and its outers to the trace, and each objective evaluation runs the
// density term once: the totals are the sums over the trace.
TEST(StructurePlacer, GpCountersAgreeInEveryFlow) {
  Pipe pipe("dp_add32");
  PlacerConfig baseline;
  baseline.structure_aware = false;
  PlacerConfig gentle;
  for (const PlacerConfig& c : {baseline, gentle}) {
    const gp::GpResult gp = pipe.run(c).gp_result;
    EXPECT_GT(gp.total_evaluations, 0u);
    EXPECT_EQ(gp.total_evaluations, gp.profile.density.calls);
    std::size_t evaluations = 0, cg_iterations = 0;
    for (const gp::GpTracePoint& p : gp.trace) {
      evaluations += p.evaluations;
      cg_iterations += p.cg_iterations;
    }
    EXPECT_EQ(gp.total_evaluations, evaluations);
    EXPECT_EQ(gp.total_cg_iterations, cg_iterations);
  }
}

// Both flows are scored against dpgen's ground truth, one reference.
TEST(StructurePlacer, BaselineBeatsNothingOnAlignment) {
  Pipe pipe("dp_add32");
  auto truth_misalignment = [&](bool structure_aware) {
    PlacerConfig c;
    c.structure_aware = structure_aware;
    pipe.run(c);
    return eval::alignment_score(pipe.bench.netlist, pipe.pl,
                                 pipe.bench.truth)
        .rms_misalignment;
  };
  const double base_mis = truth_misalignment(false);
  EXPECT_LT(truth_misalignment(true), base_mis);
}

// A fixed macro inside the core, as a Bookshelf terminal brings one to
// `dpplace_cli --aux`, is an obstacle to legalization, repair and detailed
// placement: no movable cell ends on it. The legality check sees it too.
TEST(StructurePlacer, GentleFlowKeepsCellsOffFixedMacro) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  const std::string base = ::testing::TempDir() + "macro_in_core";
  netlist::write_bookshelf(base, bench.netlist, bench.design, bench.placement);
  // A 10 x 10 macro at the core's center, on the row and site grid.
  const geom::Rect& core = bench.design.core();
  const double lx = bench.design.snap_x(core.center().x - 5.0);
  const double ly = core.ly + std::round(core.center().y - 5.0 - core.ly);
  const geom::Rect macro(lx, ly, lx + 10.0, ly + 10.0);
  {  // Append the macro, counted in the NumNodes and NumTerminals headers.
    std::vector<std::string> lines;
    {
      std::ifstream in(base + ".nodes");
      for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
    for (std::string& line : lines) {
      for (const std::string key : {"NumNodes : ", "NumTerminals : "}) {
        if (line.starts_with(key)) {
          line = key + std::to_string(std::stoul(line.substr(key.size())) + 1);
        }
      }
    }
    lines.push_back("  macro 10 10 terminal");
    std::ofstream out(base + ".nodes");
    for (const std::string& line : lines) out << line << "\n";
  }
  std::ofstream(base + ".pl", std::ios::app)
      << "macro " << lx << " " << ly << " : N /FIXED\n";
  const netlist::Problem loaded =
      netlist::read_bookshelf(base + ".aux");
  const netlist::Netlist& nl = loaded.netlist;

  StructurePlacer placer(nl, loaded.design, {});
  Placement pl = loaded.placement;
  const PlaceReport rep = placer.place(pl);
  EXPECT_TRUE(rep.legality.legal());
  std::size_t on_macro = 0;
  netlist::CellId movable = netlist::kInvalidId;
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    if (nl.cell(c).fixed) continue;
    movable = c;
    const geom::Rect r = geom::Rect::from_center(pl[c], nl.cell_width(c),
                                                 nl.cell_height(c));
    if (r.overlap_area(macro) > 1e-9) ++on_macro;
  }
  EXPECT_EQ(on_macro, 0u);

  // Plant a cell on the macro, on the row and site grid.
  pl[movable] = {lx + nl.cell_width(movable) / 2.0,
                 ly + 4.0 + nl.cell_height(movable) / 2.0};
  EXPECT_GT(eval::check_legality(nl, loaded.design, pl).overlaps, 0u);
}

TEST(StructurePlacer, Deterministic) {
  Pipe pipe("dp_add32");
  PlacerConfig c;
  const PlaceReport r1 = pipe.run(c);
  const PlaceReport r2 = pipe.run(c);
  EXPECT_DOUBLE_EQ(r1.hpwl_final, r2.hpwl_final);
}

TEST(StructurePlacer, TruthOracleAblationWorks) {
  Pipe pipe("dp_add32");
  PlacerConfig c;
  c.use_truth_structure = true;
  const PlaceReport rep = pipe.run(c);
  EXPECT_TRUE(rep.legality.legal());
  // The structure used is (a partition of) the truth annotation.
  EXPECT_EQ(rep.structure.total_cells(), pipe.bench.truth.total_cells());
}

TEST(StructurePlacer, ReportsStageTimings) {
  Pipe pipe("dp_add32");
  const PlaceReport rep = pipe.run({});
  EXPECT_GT(rep.t_gp, 0.0);
  EXPECT_GE(rep.t_total, rep.t_gp);
  EXPECT_GT(rep.hpwl_gp, 0.0);
  EXPECT_GT(rep.hpwl_legal, 0.0);
}

TEST(StructurePlacer, AlignmentWeightZeroStillLegal) {
  Pipe pipe("dp_add32");
  PlacerConfig c;
  c.alignment_weight = 0.0;
  const PlaceReport rep = pipe.run(c);
  EXPECT_TRUE(rep.legality.legal());
}

TEST(StructurePlacer, TimingMeasureOnlyReportsWithoutSteering) {
  Pipe pipe("dp_add32");
  PlacerConfig c;
  c.timing.measure = true;
  const PlaceReport rep = pipe.run(c);
  EXPECT_TRUE(rep.timing_measured);
  EXPECT_GT(rep.timing.endpoints, 0u);
  EXPECT_GT(rep.timing.max_arrival, 0.0);
  EXPECT_GT(rep.timing_gp.max_arrival, 0.0);
  EXPECT_FALSE(rep.timing.critical_path.empty());
  EXPECT_EQ(rep.timing_reweights, 0u) << "measure-only must not steer";

  // Measurement is an observer: the placement matches the untimed run.
  Pipe ref("dp_add32");
  const PlaceReport untimed = ref.run({});
  EXPECT_DOUBLE_EQ(rep.hpwl_final, untimed.hpwl_final);
}

TEST(StructurePlacer, TimingDrivenReweightsAndGuards) {
  Pipe pipe("dp_add32");
  PlacerConfig c;
  c.timing.driven = true;
  const PlaceReport rep = pipe.run(c);
  EXPECT_TRUE(rep.legality.legal());
  EXPECT_TRUE(rep.timing_measured);
  EXPECT_GT(rep.timing_reweights, 0u);
  // With an auto period the proxy is WNS = 0 by construction; driven
  // mode should not blow up wirelength while chasing it.
  Pipe ref("dp_add32");
  const PlaceReport untimed = ref.run({});
  EXPECT_LT(rep.hpwl_final, untimed.hpwl_final * 1.1);
}

TEST(StructurePlacer, PureGlueSaEqualsBaseline) {
  Pipe pipe("glue");
  PlacerConfig base;
  base.structure_aware = false;
  const PlaceReport rb = pipe.run(base);
  PlacerConfig sa;
  sa.structure_aware = true;
  const PlaceReport rs = pipe.run(sa);
  // No structure found, so the flows are byte-identical.
  EXPECT_DOUBLE_EQ(rb.hpwl_final, rs.hpwl_final);
}

// Overflow falls only ~0.001 per outer during mix25's lambda warm-up; a
// stop that judged that a plateau ended this GP at outer 4, overflow 0.9,
// and legalization then paid for the unspread cells.
TEST(StructurePlacer, BaselineGpSpreadsMix25ToStopOverflow) {
  Pipe pipe("mix25");
  PlacerConfig c;
  c.structure_aware = false;
  const PlaceReport rep = pipe.run(c);
  EXPECT_LE(rep.gp_result.final_overflow, c.gp.stop_overflow);
  EXPECT_LT(rep.gp_result.trace.size(), c.gp.max_outer);
}

// mix25 under the suite-routed flow (timing-driven, congestion refinement,
// dpgen seed 1) is where solving every spreading outer to convergence
// wasted the most: phase B ran all 12 of its outers and stopped at overflow
// 0.094 after 807 evaluations. With the spreading outers capped at
// gp::kSpreadInnerIters, phase B starts less collapsed and converges.
TEST(StructurePlacer, RoutedMix25GpConverges) {
  Pipe pipe("mix25");
  PlacerConfig c;
  c.structure_aware = true;
  c.timing.driven = true;
  c.congestion.measure = true;
  c.congestion.refine = true;
  const PlaceReport rep = pipe.run(c);
  EXPECT_EQ(rep.gp_result.stop_reason, gp::GpStop::kOverflowReached)
      << "overflow " << rep.gp_result.final_overflow;
  EXPECT_LT(rep.gp_result.total_evaluations, 600u);
}

// A GP that leaves plates piled on each other hands Abacus overlaps to pull
// apart, and legalization pays for them in wirelength. On the suite designs
// with several plates, sa-gentle's legalization HPWL growth (hpwl_legal
// over hpwl_gp) stays under a ceiling: about 1.3x the growth above 1
// measured when this test took this form (dp_alu32 1.053, mix50 1.027,
// mix75 1.038). Shrinking the plates' density area to half the
// macro-shrink piles them up and reads 1.553 / 1.236 / 1.426, failing all
// three.
struct LegalGrowth {
  const char* bench;
  double ceiling;
};

class GentleLegalGrowth : public ::testing::TestWithParam<LegalGrowth> {};

TEST_P(GentleLegalGrowth, PlatesDoNotPileUpInGp) {
  const LegalGrowth& p = GetParam();
  Pipe pipe(p.bench);
  PlacerConfig c;
  c.structure_aware = true;
  const PlaceReport rep = pipe.run(c);
  ASSERT_GT(rep.structure.groups.size(), 1u) << p.bench;
  EXPECT_LT(rep.hpwl_legal / rep.hpwl_gp, p.ceiling) << p.bench;
}

std::string bench_name(
    const ::testing::TestParamInfo<LegalGrowth>& param_info) {
  return param_info.param.bench;
}

INSTANTIATE_TEST_SUITE_P(
    MultiPlate, GentleLegalGrowth,
    ::testing::Values(LegalGrowth{"dp_alu32", 1.07},
                      LegalGrowth{"mix50", 1.035},
                      LegalGrowth{"mix75", 1.05}),
    bench_name);

class SuitePlacement : public ::testing::TestWithParam<std::string> {};

TEST_P(SuitePlacement, DefaultFlowLegalOnEveryBenchmark) {
  Pipe pipe(GetParam());
  const PlaceReport rep = pipe.run({});
  EXPECT_TRUE(rep.legality.legal())
      << GetParam() << ": ov=" << rep.legality.overlaps
      << " row=" << rep.legality.off_row << " out="
      << rep.legality.out_of_core;
  EXPECT_GT(rep.hpwl_final, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuitePlacement,
    ::testing::Values("dp_add32", "dp_mul16", "dp_shift32", "mix50"));

}  // namespace
}  // namespace dp::core
