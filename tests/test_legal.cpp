#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dpgen/generator.hpp"
#include "eval/metrics.hpp"
#include "legal/abacus.hpp"
#include "legal/repair.hpp"
#include "legal/rowmap.hpp"
#include "util/prng.hpp"

namespace dp::legal {
namespace {

using netlist::CellId;
using netlist::Placement;

TEST(RowMap, InitialSegmentsSpanRows) {
  const netlist::Design design(geom::Rect{0, 0, 10, 4}, 1.0, 0.25);
  const RowMap rows(design);
  ASSERT_EQ(rows.num_rows(), 4u);
  ASSERT_EQ(rows.segments(0).size(), 1u);
  EXPECT_DOUBLE_EQ(rows.free_width(0), 10.0);
}

TEST(RowMap, BlockSplitsSegment) {
  const netlist::Design design(geom::Rect{0, 0, 10, 2}, 1.0, 0.25);
  RowMap rows(design);
  rows.block(0, 4.0, 6.0);
  ASSERT_EQ(rows.segments(0).size(), 2u);
  EXPECT_DOUBLE_EQ(rows.segments(0)[0].hx, 4.0);
  EXPECT_DOUBLE_EQ(rows.segments(0)[1].lx, 6.0);
  EXPECT_DOUBLE_EQ(rows.free_width(0), 8.0);
  EXPECT_DOUBLE_EQ(rows.free_width(1), 10.0);
}

TEST(RowMap, BlockAtEdgeTrims) {
  const netlist::Design design(geom::Rect{0, 0, 10, 1}, 1.0, 0.25);
  RowMap rows(design);
  rows.block(0, 0.0, 3.0);
  ASSERT_EQ(rows.segments(0).size(), 1u);
  EXPECT_DOUBLE_EQ(rows.segments(0)[0].lx, 3.0);
}

TEST(RowMap, OverlappingBlocksMerge) {
  const netlist::Design design(geom::Rect{0, 0, 10, 1}, 1.0, 0.25);
  RowMap rows(design);
  rows.block(0, 2.0, 5.0);
  rows.block(0, 4.0, 7.0);
  EXPECT_DOUBLE_EQ(rows.free_width(0), 5.0);
}

struct RandomBench {
  explicit RandomBench(std::uint64_t seed, std::size_t glue = 400,
                       double utilization = 0.7) {
    dpgen::Generator gen("t", seed);
    gen.add_glue("g", glue, {});
    bench.emplace(gen.finish(utilization));
  }
  std::optional<dpgen::Benchmark> bench;

  Placement random_start(std::uint64_t seed) const {
    Placement pl = bench->placement;
    util::Rng rng(seed);
    const geom::Rect& core = bench->design.core();
    for (CellId c = 0; c < bench->netlist.num_cells(); ++c) {
      if (!bench->netlist.cell(c).fixed) {
        pl[c] = {rng.uniform(core.lx, core.hx),
                 rng.uniform(core.ly, core.hy)};
      }
    }
    return pl;
  }
};

class LegalizerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LegalizerProperty, AbacusProducesLegalPlacement) {
  RandomBench rb(GetParam());
  Placement pl = rb.random_start(GetParam() * 13 + 5);
  EXPECT_TRUE(abacus_all(rb.bench->netlist, rb.bench->design, pl).empty());
  EXPECT_TRUE(
      eval::check_legality(rb.bench->netlist, rb.bench->design, pl).legal());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegalizerProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Abacus, RespectsBlockedSegments) {
  RandomBench rb(7, 100);
  Placement pl = rb.random_start(3);
  RowMap rows(rb.bench->design);
  // Block the left half of every row.
  const geom::Rect& core = rb.bench->design.core();
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    rows.block(r, core.lx, core.center().x);
  }
  std::vector<CellId> cells;
  for (CellId c = 0; c < rb.bench->netlist.num_cells(); ++c) {
    if (!rb.bench->netlist.cell(c).fixed) cells.push_back(c);
  }
  const std::vector<CellId> failed =
      abacus(rb.bench->netlist, rb.bench->design, pl, cells, rows);
  for (CellId c : cells) {
    bool is_failed = false;
    for (CellId f : failed) is_failed |= (f == c);
    if (is_failed) continue;
    EXPECT_GE(pl[c].x - rb.bench->netlist.cell_width(c) / 2.0,
              core.center().x - 1e-6)
        << rb.bench->netlist.cell(c).name;
  }
}

// The copy-free trial must return the left edge an insertion into a copy
// of the segment returns, bit for bit. Each random segment is filled
// exactly to its width, so the last cells fit with no slack; targets run
// past both ends, so the clamps bite; and clustered targets make
// insertions merge back over several clusters. Before every insertion,
// several candidate cells are tried, not only the one inserted.
TEST(Abacus, TrialMatchesInsertionIntoACopy) {
  util::Rng rng(23);
  std::size_t merges = 0, clamped_lo = 0, clamped_hi = 0, exact_fits = 0;
  for (int round = 0; round < 200; ++round) {
    AbacusSegment seg;
    seg.lx = 0.25 * (static_cast<double>(rng.below(81)) - 40.0);
    const int sites = 4 + static_cast<int>(rng.below(57));
    seg.hx = seg.lx + 0.25 * sites;
    // Cell widths of 1-4 sites that sum to the segment width.
    std::vector<double> widths;
    for (int left = sites; left > 0;) {
      const int n = std::min(left, 1 + static_cast<int>(rng.below(4)));
      widths.push_back(0.25 * n);
      left -= n;
    }
    // Targets in x order: a random walk that piles up (merges) and starts
    // or ends outside the segment (clamps).
    const double span = seg.hx - seg.lx;
    double target = seg.lx - rng.uniform(0.0, 0.5) * span;
    const double step = 3.2 * span / static_cast<double>(widths.size());
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const AbacusSegment::Cell cell{static_cast<CellId>(i), target,
                                     widths[i]};
      for (int probe = 0; probe < 4; ++probe) {
        const AbacusSegment::Cell cand{
            cell.cell, cell.target_lx + rng.uniform(-1.0, 1.0) * span,
            0.25 * static_cast<double>(1 + rng.below(4))};
        // Abacus tries a segment only where the cell fits.
        if (seg.used + cand.width > span) continue;
        AbacusSegment copy = seg;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(seg.trial(cand)),
                  std::bit_cast<std::uint64_t>(copy.insert(cand)));
      }
      AbacusSegment copy = seg;
      const double want = copy.insert(cell);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(seg.trial(cell)),
                std::bit_cast<std::uint64_t>(want))
          << "round " << round << " cell " << i;
      const std::size_t before = seg.clusters.size();
      seg.insert(cell);
      // The insertion merged at least two clusters already there.
      merges += seg.clusters.size() < before;
      clamped_lo += cell.target_lx < seg.lx;
      clamped_hi += cell.target_lx > seg.hx - cell.width;
      target += rng.uniform(0.0, step);
    }
    exact_fits += seg.used == span;
  }
  EXPECT_GT(merges, 100u);
  EXPECT_GT(clamped_lo, 100u);
  EXPECT_GT(clamped_hi, 100u);
  EXPECT_EQ(exact_fits, 200u);
}

TEST(Repair, FixesInjectedViolations) {
  RandomBench rb(11);
  Placement pl = rb.random_start(1);
  abacus_all(rb.bench->netlist, rb.bench->design, pl);
  ASSERT_TRUE(
      eval::check_legality(rb.bench->netlist, rb.bench->design, pl).legal());

  // Break it: pile 20 cells onto one spot and knock one off-grid.
  util::Rng rng(2);
  const geom::Point spot = rb.bench->design.core().center();
  std::size_t broken = 0;
  for (CellId c = 0; c < rb.bench->netlist.num_cells() && broken < 20; ++c) {
    if (rb.bench->netlist.cell(c).fixed) continue;
    pl[c] = {spot.x + rng.uniform(-0.1, 0.1), spot.y};
    ++broken;
  }
  ASSERT_FALSE(
      eval::check_legality(rb.bench->netlist, rb.bench->design, pl).legal());

  const Placement before = pl;
  const std::size_t repaired =
      repair_legality(rb.bench->netlist, rb.bench->design, pl);
  EXPECT_GT(repaired, 0u);
  EXPECT_TRUE(
      eval::check_legality(rb.bench->netlist, rb.bench->design, pl).legal());
  // Repair moves only what it rips up: every cell outside the pile's row
  // was legal and keeps its position bit for bit.
  const std::size_t pile_row = rb.bench->design.nearest_row(spot.y);
  std::size_t kept = 0;
  for (CellId c = 0; c < rb.bench->netlist.num_cells(); ++c) {
    if (rb.bench->design.nearest_row(before[c].y) == pile_row) continue;
    EXPECT_EQ(pl[c], before[c]) << rb.bench->netlist.cell(c).name;
    ++kept;
  }
  EXPECT_GT(kept, 0u);
}

// A core with less free space than the cells need: Abacus fails some
// cells, and repair finds no room for them either. They keep their
// positions, the placed cells do not move, and the call returns.
TEST(Repair, LeavesUnplaceableCellsWhereTheyAre) {
  RandomBench rb(17);
  const netlist::Design& full = rb.bench->design;
  const netlist::Design small(
      geom::Rect{full.core().lx, full.core().ly,
                 full.core().lx + full.core().width() * 0.6, full.core().hy},
      full.row_height(), full.site_width());
  Placement pl = rb.random_start(5);
  const Placement start = pl;
  const std::vector<CellId> failed = abacus_all(rb.bench->netlist, small, pl);
  ASSERT_FALSE(failed.empty());

  const Placement before = pl;
  std::size_t untouched = 0;
  for (CellId c = 0; c < rb.bench->netlist.num_cells(); ++c) {
    if (rb.bench->netlist.cell(c).fixed) continue;
    if (pl[c] == start[c]) ++untouched;
  }
  EXPECT_EQ(untouched, failed.size());
  for (const CellId c : failed) EXPECT_EQ(pl[c], start[c]);

  EXPECT_EQ(repair_legality(rb.bench->netlist, small, pl), failed.size());
  for (CellId c = 0; c < rb.bench->netlist.num_cells(); ++c) {
    EXPECT_EQ(pl[c], before[c]) << rb.bench->netlist.cell(c).name;
  }
}

TEST(Repair, NoopOnLegalInput) {
  RandomBench rb(13);
  Placement pl = rb.random_start(1);
  abacus_all(rb.bench->netlist, rb.bench->design, pl);
  const Placement before = pl;
  EXPECT_EQ(repair_legality(rb.bench->netlist, rb.bench->design, pl), 0u);
  for (CellId c = 0; c < rb.bench->netlist.num_cells(); ++c) {
    EXPECT_DOUBLE_EQ(pl[c].x, before[c].x);
  }
}

}  // namespace
}  // namespace dp::legal
