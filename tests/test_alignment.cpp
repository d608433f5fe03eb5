#include <gtest/gtest.h>

#include <algorithm>

#include "core/alignment.hpp"
#include "core/partition.hpp"
#include "dpgen/benchmarks.hpp"
#include "util/prng.hpp"

namespace dp::core {
namespace {

using netlist::CellId;
using netlist::Placement;

struct AdderFixture {
  AdderFixture() {
    dpgen::Generator gen("t", 33);
    auto a = gen.input_bus("a", 8);
    auto b = gen.input_bus("b", 8);
    gen.add_pipelined_adder("add", a, b, 2);
    bench.emplace(gen.finish());
  }

  /// Perfectly aligned placement of the first group: bit b on row b,
  /// stage s at a fixed column, pitch-separated.
  Placement aligned() const {
    Placement pl = bench->placement;
    const auto& g = bench->truth.groups[0];
    const auto& design = bench->design;
    for (std::size_t bit = 0; bit < g.bits; ++bit) {
      double x = design.core().lx + 1.0;
      for (std::size_t s = 0; s < g.stages; ++s) {
        const CellId c = g.at(bit, s);
        if (c != netlist::kInvalidId) {
          pl[c] = {x, design.row(bit).y + design.row_height() / 2.0};
        }
        x += 3.0;
      }
    }
    return pl;
  }

  std::optional<dpgen::Benchmark> bench;
};

TEST(AlignmentPenalty, ZeroValueAndGradientOnAlignedArray) {
  AdderFixture f;
  AlignmentPenalty term(f.bench->truth);
  gp::VarMap vars(f.bench->netlist);
  std::vector<double> gx(vars.num_vars(), 0.0), gy(vars.num_vars(), 0.0);
  EXPECT_EQ(term.eval(f.aligned(), vars, gx, gy), 0.0);
  const auto zero = [](double g) { return g == 0.0; };
  EXPECT_TRUE(std::all_of(gx.begin(), gx.end(), zero));
  EXPECT_TRUE(std::all_of(gy.begin(), gy.end(), zero));
}

// Lane order carries no energy: two bit slices trading rows are still two
// aligned slices.
TEST(AlignmentPenalty, SwappedSlicesStayAligned) {
  AdderFixture f;
  AlignmentPenalty term(f.bench->truth);
  gp::VarMap vars(f.bench->netlist);
  Placement pl = f.aligned();
  const auto& g = f.bench->truth.groups[0];
  ASSERT_GE(g.bits, 4u);
  const double h = f.bench->design.row_height();
  for (std::size_t s = 0; s < g.stages; ++s) {
    const CellId lo = g.at(0, s);
    const CellId hi = g.at(3, s);
    if (lo != netlist::kInvalidId) pl[lo].y += 3.0 * h;
    if (hi != netlist::kInvalidId) pl[hi].y -= 3.0 * h;
  }
  std::vector<double> gx(vars.num_vars(), 0.0), gy(vars.num_vars(), 0.0);
  EXPECT_EQ(term.eval(pl, vars, gx, gy), 0.0);
}

TEST(AlignmentPenalty, GradientMatchesFiniteDifference) {
  AdderFixture f;
  AlignmentPenalty term(f.bench->truth);
  gp::VarMap vars(f.bench->netlist);
  Placement pl = f.bench->placement;
  util::Rng rng(5);
  for (const CellId c : vars.movable_cells()) {
    pl[c] = {rng.uniform(0, 15), rng.uniform(0, 15)};
  }
  const std::size_t n = vars.num_vars();
  std::vector<double> gx(n, 0.0), gy(n, 0.0);
  term.eval(pl, vars, gx, gy);

  std::vector<double> dx(n), dy(n);
  const double h = 1e-6;
  auto value = [&](const Placement& p) {
    dx.assign(n, 0.0);
    dy.assign(n, 0.0);
    return term.eval(p, vars, dx, dy);
  };
  // Spot-check a handful of datapath cells on both axes.
  const auto& g = f.bench->truth.groups[0];
  int checked = 0;
  for (CellId c : g.cells) {
    if (c == netlist::kInvalidId || checked >= 6) continue;
    const auto v = vars.var(c);
    const double x0 = pl[c].x;
    pl[c].x = x0 + h;
    const double fp = value(pl);
    pl[c].x = x0 - h;
    const double fm = value(pl);
    pl[c].x = x0;
    EXPECT_NEAR(gx[v], (fp - fm) / (2 * h), 1e-3);

    const double y0 = pl[c].y;
    pl[c].y = y0 + h;
    const double fyp = value(pl);
    pl[c].y = y0 - h;
    const double fym = value(pl);
    pl[c].y = y0;
    EXPECT_NEAR(gy[v], (fyp - fym) / (2 * h), 1e-3);
    ++checked;
  }
}

TEST(AlignmentPenalty, TranslationInvariant) {
  AdderFixture f;
  AlignmentPenalty term(f.bench->truth);
  gp::VarMap vars(f.bench->netlist);
  Placement pl = f.aligned();
  std::vector<double> gx(vars.num_vars(), 0.0), gy(vars.num_vars(), 0.0);
  const double v1 = term.eval(pl, vars, gx, gy);
  for (auto& p : pl) p += geom::Point{2.5, 1.5};
  gx.assign(vars.num_vars(), 0.0);
  gy.assign(vars.num_vars(), 0.0);
  const double v2 = term.eval(pl, vars, gx, gy);
  EXPECT_NEAR(v1, v2, 1e-6 * std::max(1.0, std::abs(v1)));
}

TEST(Partition, CoversEveryCellExactlyOnce) {
  AdderFixture f;
  const auto out = partition_groups(f.bench->netlist, f.bench->design,
                                    f.bench->truth);
  std::size_t covered = 0;
  std::vector<bool> seen(f.bench->netlist.num_cells(), false);
  for (const auto& g : out.groups) {
    for (CellId c : g.cells) {
      if (c == netlist::kInvalidId) continue;
      EXPECT_FALSE(seen[c]);
      seen[c] = true;
      ++covered;
    }
  }
  EXPECT_EQ(covered, f.bench->truth.total_cells());
}

TEST(Partition, WideGroupSplitIntoSeqChunks) {
  // A very wide group: 8 bits x 30 stages of full adders, ~3.5x the
  // 0.28-of-core width limit.
  dpgen::Generator gen("t", 36);
  auto a = gen.input_bus("a", 8);
  auto b = gen.input_bus("b", 8);
  gen.add_pipelined_adder("add", a, b, 10);  // 30 stage columns
  const auto bench = gen.finish();
  const auto out = partition_groups(bench.netlist, bench.design, bench.truth);
  EXPECT_GT(out.groups.size(), 1u);
  // Sub-groups cover all original cells, and each multi-column span fits
  // the width limit.
  const double max_width =
      bench.design.core().width() * kPartitionMaxWidthFraction;
  std::size_t covered = 0;
  for (const auto& g : out.groups) {
    EXPECT_EQ(g.bits, 8u);
    covered += g.num_cells();
    double width = 0.0;
    for (std::size_t s = 0; s < g.stages; ++s) {
      double col = 0.0;
      for (std::size_t bit = 0; bit < g.bits; ++bit) {
        if (g.at(bit, s) != netlist::kInvalidId) {
          col = std::max(col, bench.netlist.cell_width(g.at(bit, s)));
        }
      }
      width += col;
    }
    if (g.stages > 1) {
      EXPECT_LE(width, max_width);
    }
  }
  EXPECT_EQ(covered, bench.truth.groups[0].num_cells());
}

TEST(Partition, TallGroupSplitIntoLaneBands) {
  // 64 lanes of a 3-column adder: narrow enough to stay one column span,
  // taller than 0.8 of the core rows.
  dpgen::Generator gen("t", 37);
  auto a = gen.input_bus("a", 64);
  auto b = gen.input_bus("b", 64);
  gen.add_pipelined_adder("add", a, b, 1);
  const auto bench = gen.finish();
  const auto max_lanes = static_cast<std::size_t>(
      kPartitionMaxLaneFraction *
      static_cast<double>(bench.design.num_rows()));
  ASSERT_GT(bench.truth.groups[0].bits, max_lanes);
  const auto out = partition_groups(bench.netlist, bench.design, bench.truth);
  EXPECT_GT(out.groups.size(), 1u);
  std::size_t lanes = 0;
  for (const auto& g : out.groups) {
    EXPECT_LE(g.bits, max_lanes);
    EXPECT_EQ(g.stages, bench.truth.groups[0].stages);
    lanes += g.bits;
  }
  EXPECT_EQ(lanes, 64u);
}

}  // namespace
}  // namespace dp::core
