// Golden placements: the final HPWL of a few full structure-aware runs,
// pinned to the bit. Any change to the placer that moves a placement --
// kernel reordering, a different reduction order, a new default -- fails
// here, so drift is always declared, never silent.
//
// Re-recording after a declared drift: run this test, copy the "actual"
// hex pattern each failing case prints into its `bits` entry below, and
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

struct Golden {
  const char* bench;
  bool routed;  ///< timing-driven + congestion refinement on
  std::uint64_t bits;
};

std::string hex(std::uint64_t bits) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

double place_hpwl(const Golden& g) {
  util::Logger::set_level(util::LogLevel::kError);
  auto b = dpgen::make_benchmark(g.bench);
  PlacerConfig c;
  c.structure_aware = true;
  c.legalization = LegalizationMode::kGentle;
  if (g.routed) {
    c.timing.driven = true;
    c.congestion.measure = true;
    c.congestion.refine = true;
  }
  StructurePlacer placer(b.netlist, b.design, c);
  auto pl = b.placement;
  return placer.place(pl, &b.truth).hpwl_final;
}

class GoldenPlacement : public testing::TestWithParam<Golden> {};

TEST_P(GoldenPlacement, FinalHpwlBitwise) {
  const Golden& g = GetParam();
  const double hpwl = place_hpwl(g);
  const std::uint64_t actual = std::bit_cast<std::uint64_t>(hpwl);
  EXPECT_EQ(hex(actual), hex(g.bits))
      << g.bench << (g.routed ? " (timing + congestion refine)" : "")
      << ": hpwl_final " << hpwl << " drifted from "
      << std::bit_cast<double>(g.bits);
}

// sa-gentle, structure-aware with the truth annotation. The mix25 routed
// run exercises timing reweighting and one accepted congestion refinement.
INSTANTIATE_TEST_SUITE_P(
    SaGentle, GoldenPlacement,
    testing::Values(Golden{"dp_add32", false, 0x40c3297477c9e6e7ULL},
                    Golden{"mix25", false, 0x40ed4cc100f74e39ULL},
                    Golden{"mix25", true, 0x40e5bbbdc609a912ULL}),
    [](const testing::TestParamInfo<Golden>& param_info) {
      return std::string(param_info.param.bench) +
             (param_info.param.routed ? "_routed" : "");
    });

}  // namespace
}  // namespace dp::core
