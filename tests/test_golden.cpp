// Golden placements: the final HPWL of a few full placement runs, pinned
// to the bit, plus the timing guard's veto count and the GP's CG
// iterations and objective evaluations. Any change to the placer that
// moves a placement -- kernel reordering, a different reduction order, a
// new default -- fails here, and so does one that adds GP work without
// moving it, so drift is always declared, never silent.
//
// Re-recording after a declared drift: run this test, copy the "actual"
// hex pattern and counts each failing case prints into its entry below, and
// state the drift (what moved and why) in the change description. The
// patterns are for IEEE-754 doubles on x86-64 without FMA contraction
// (the default GCC/Clang codegen); another toolchain may legitimately
// need its own recording.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "util/logger.hpp"

namespace dp::core {
namespace {

/// Which branch of StructurePlacer::place a case runs.
enum class Flow {
  kGentle,    ///< structure-aware
  kBaseline,  ///< structure-oblivious
};

struct Golden {
  const char* bench;
  Flow flow;
  bool routed;  ///< timing-driven + in-GP congestion inflation on
  std::uint64_t bits;
  std::size_t guard_vetoes;  ///< detail moves the timing guard refused
  std::size_t cg_iterations;  ///< over every GP run of the placement
  std::size_t evaluations;    ///< objective evaluations, likewise
};

std::string hex(std::uint64_t bits) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

PlaceReport place(const Golden& g) {
  util::Logger::set_level(util::LogLevel::kError);
  auto b = dpgen::make_benchmark(g.bench);
  PlacerConfig c;
  c.structure_aware = g.flow != Flow::kBaseline;
  if (g.routed) {
    c.timing.driven = true;
    c.congestion.measure = true;
    c.congestion.refine = true;
  }
  StructurePlacer placer(b.netlist, b.design, c);
  auto pl = b.placement;
  return placer.place(pl, &b.truth);
}

class GoldenPlacement : public testing::TestWithParam<Golden> {};

TEST_P(GoldenPlacement, FinalHpwlBitwise) {
  const Golden& g = GetParam();
  const PlaceReport report = place(g);
  const double hpwl = report.hpwl_final;
  const std::uint64_t actual = std::bit_cast<std::uint64_t>(hpwl);
  EXPECT_EQ(hex(actual), hex(g.bits))
      << g.bench << (g.routed ? " (timing + congestion inflation)" : "")
      << ": hpwl_final " << hpwl << " drifted from "
      << std::bit_cast<double>(g.bits);
  EXPECT_EQ(report.detail_stats.profile.guard_vetoes, g.guard_vetoes);
  EXPECT_EQ(report.gp_result.total_cg_iterations, g.cg_iterations);
  EXPECT_EQ(report.gp_result.total_evaluations, g.evaluations);
}

std::string case_name(const testing::TestParamInfo<Golden>& param_info) {
  const Golden& g = param_info.param;
  std::string name = g.bench;
  if (g.flow == Flow::kBaseline) name += "_baseline";
  return g.routed ? name + "_routed" : name;
}

// sa-gentle, structure-aware with the truth annotation. The mix25 routed
// run exercises timing reweighting, the detail move guard and the in-GP
// congestion inflation.
INSTANTIATE_TEST_SUITE_P(
    SaGentle, GoldenPlacement,
    testing::Values(
        Golden{"dp_add32", Flow::kGentle, false, 0x40bdebf99999999bULL, 0,
               69, 74},
        Golden{"mix25", Flow::kGentle, false, 0x40e3bc3506c323beULL, 0,
               225, 250},
        Golden{"mix25", Flow::kGentle, true, 0x40e92bcd40b97aa8ULL, 744,
               376, 413}),
    case_name);

// The structure-oblivious baseline, plain and routed (inflation in the GP,
// guard in the detailer).
INSTANTIATE_TEST_SUITE_P(
    OtherFlows, GoldenPlacement,
    testing::Values(
        Golden{"mix25", Flow::kBaseline, false, 0x40e4d6567ba71fe2ULL, 0,
               267, 310},
        Golden{"mix25", Flow::kBaseline, true, 0x40e86486cebb6942ULL, 976,
               296, 313}),
    case_name);

}  // namespace
}  // namespace dp::core
