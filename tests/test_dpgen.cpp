#include <gtest/gtest.h>

#include <set>

#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"

namespace dp::dpgen {
namespace {

using netlist::CellId;
using netlist::kInvalidId;

TEST(Generator, AdderShape) {
  Generator gen("t", 1);
  Bus a = gen.input_bus("a", 8);
  Bus b = gen.input_bus("b", 8);
  Bus s = gen.add_pipelined_adder("add", a, b, 2);
  EXPECT_EQ(s.size(), 8u);
  const Benchmark bench = gen.finish();
  ASSERT_EQ(bench.truth.groups.size(), 1u);
  const auto& g = bench.truth.groups[0];
  EXPECT_EQ(g.bits, 8u);
  EXPECT_EQ(g.stages, 6u);  // FA + sum reg + operand reg per pipe stage
  EXPECT_EQ(g.num_cells(), 8u * 6u);
}

TEST(Generator, AluShape) {
  Generator gen("t", 1);
  Bus a = gen.input_bus("a", 4);
  Bus b = gen.input_bus("b", 4);
  Bus y = gen.add_alu("alu", a, b);
  EXPECT_EQ(y.size(), 4u);
  const Benchmark bench = gen.finish();
  const auto& g = bench.truth.groups[0];
  EXPECT_EQ(g.bits, 4u);
  EXPECT_EQ(g.stages, 8u);
  EXPECT_EQ(g.num_cells(), 32u);
}

TEST(Generator, MultiplierHasRowZeroHoles) {
  Generator gen("t", 1);
  Bus a = gen.input_bus("a", 4);
  Bus b = gen.input_bus("b", 4);
  gen.add_multiplier("mul", a, b);
  const Benchmark bench = gen.finish();
  const auto& g = bench.truth.groups[0];
  EXPECT_EQ(g.bits, 4u);
  EXPECT_EQ(g.stages, 8u);
  // Row 0 has partial products only (no adders).
  for (std::size_t s = 1; s < g.stages; s += 2) {
    EXPECT_EQ(g.at(0, s), kInvalidId);
  }
  EXPECT_EQ(g.num_cells(), 16u + 12u);
}

TEST(Generator, ShifterRequiresPowerOfTwo) {
  Generator gen("t", 1);
  Bus a = gen.input_bus("a", 6);
  EXPECT_THROW(gen.add_shifter("sh", a), std::invalid_argument);
}

TEST(Generator, ShifterShape) {
  Generator gen("t", 1);
  Bus a = gen.input_bus("a", 8);
  gen.add_shifter("sh", a);
  const Benchmark bench = gen.finish();
  const auto& g = bench.truth.groups[0];
  EXPECT_EQ(g.bits, 8u);
  EXPECT_EQ(g.stages, 3u);  // log2(8)
}

TEST(Generator, RegisterFileGroups) {
  Generator gen("t", 1);
  Bus d = gen.input_bus("d", 4);
  gen.add_register_file("rf", d, 4);
  const Benchmark bench = gen.finish();
  // 4 word groups + 1 read-tree group.
  EXPECT_EQ(bench.truth.groups.size(), 5u);
}

TEST(Generator, TruthCellsAreUniqueAcrossGroups) {
  const Benchmark bench = make_benchmark("dp_alu32");
  std::set<CellId> seen;
  for (const auto& g : bench.truth.groups) {
    for (CellId c : g.cells) {
      if (c == kInvalidId) continue;
      EXPECT_TRUE(seen.insert(c).second) << "cell in two groups: " << c;
    }
  }
}

TEST(Generator, PadsFixedAndOutsideCore) {
  const Benchmark bench = make_benchmark("dp_add32");
  const geom::Rect& core = bench.design.core();
  for (CellId c = 0; c < bench.netlist.num_cells(); ++c) {
    if (!bench.netlist.cell(c).fixed) continue;
    const geom::Point p = bench.placement[c];
    EXPECT_FALSE(core.lx < p.x && p.x < core.hx && core.ly < p.y &&
                 p.y < core.hy)
        << "pad strictly inside core";
  }
}

TEST(Generator, EveryPortConnectedOnce) {
  const Benchmark bench = make_benchmark("dp_mul16");
  for (CellId c = 0; c < bench.netlist.num_cells(); ++c) {
    std::set<std::uint16_t> ports;
    for (auto p : bench.netlist.cell_pins(c)) {
      EXPECT_TRUE(ports.insert(bench.netlist.pin(p).port).second);
    }
  }
}

TEST(Generator, ControlBlockAvoidsPadExplosion) {
  Generator with_ctl("a", 1);
  with_ctl.add_control_block("ctl", 64);
  Bus a1 = with_ctl.input_bus("a", 8);
  Bus b1 = with_ctl.input_bus("b", 8);
  with_ctl.add_alu("alu", a1, b1);
  const Benchmark bench1 = with_ctl.finish();

  Generator without("b", 1);
  Bus a2 = without.input_bus("a", 8);
  Bus b2 = without.input_bus("b", 8);
  without.add_alu("alu", a2, b2);
  const Benchmark bench2 = without.finish();

  auto pads = [](const Benchmark& b) {
    std::size_t n = 0;
    for (const auto& c : b.netlist.cells()) n += c.fixed ? 1 : 0;
    return n;
  };
  // With a control pool, the ALU's op/cin come from logic, not pads:
  // bench1 adds a 64-cell block but NOT the 4 control pads.
  EXPECT_EQ(pads(bench2), 8u + 8u + 4u);  // a, b, op0..op2 + cin
  EXPECT_EQ(pads(bench1), 8u + 8u + 2u);  // a, b, glue seed pads
}

class BenchmarkSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkSuite, BuildsAndIsConsistent) {
  const Benchmark bench = make_benchmark(GetParam());
  EXPECT_GT(bench.netlist.num_cells(), 100u);
  EXPECT_GT(bench.netlist.num_nets(), 100u);
  EXPECT_EQ(bench.placement.size(), bench.netlist.num_cells());
  // All group cells exist and are movable.
  for (const auto& g : bench.truth.groups) {
    for (CellId c : g.cells) {
      if (c == kInvalidId) continue;
      ASSERT_LT(c, bench.netlist.num_cells());
      EXPECT_FALSE(bench.netlist.cell(c).fixed);
    }
  }
  // Nets have at most one driver.
  for (netlist::NetId n = 0; n < bench.netlist.num_nets(); ++n) {
    int drivers = 0;
    for (auto p : bench.netlist.net_pins(n)) {
      drivers +=
          bench.netlist.pin(p).dir == netlist::PinDir::kOutput ? 1 : 0;
    }
    EXPECT_LE(drivers, 1) << bench.netlist.net(n).name;
  }
}

TEST_P(BenchmarkSuite, Deterministic) {
  const Benchmark a = make_benchmark(GetParam());
  const Benchmark b = make_benchmark(GetParam());
  EXPECT_EQ(a.netlist.num_cells(), b.netlist.num_cells());
  EXPECT_EQ(a.netlist.num_nets(), b.netlist.num_nets());
  EXPECT_EQ(a.netlist.num_pins(), b.netlist.num_pins());
  EXPECT_DOUBLE_EQ(eval::hpwl(a.netlist, a.placement),
                   eval::hpwl(b.netlist, b.placement));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkSuite,
                         ::testing::ValuesIn(standard_benchmarks()));

TEST(Mix, FractionControlsDatapathShare) {
  const Benchmark lo = make_mix(0.25, 2000);
  const Benchmark hi = make_mix(0.75, 2000);
  const auto frac = [](const Benchmark& b) {
    return static_cast<double>(b.truth.total_cells()) /
           static_cast<double>(b.netlist.num_movable());
  };
  EXPECT_LT(frac(lo), frac(hi));
  EXPECT_NEAR(frac(lo), 0.25, 0.15);
  EXPECT_NEAR(frac(hi), 0.75, 0.15);
}

TEST(Scaled, ApproximatesTarget) {
  const Benchmark b = make_scaled(4000);
  EXPECT_NEAR(static_cast<double>(b.netlist.num_movable()), 4000.0, 800.0);
}

TEST(MakeBenchmark, UnknownNameThrows) {
  EXPECT_THROW(make_benchmark("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace dp::dpgen
