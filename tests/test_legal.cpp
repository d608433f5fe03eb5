#include <gtest/gtest.h>

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
  AbacusLegalizer abacus(rb.bench->netlist, rb.bench->design);
  const LegalizeStats stats = abacus.run_all(pl);
  EXPECT_EQ(stats.cells_failed, 0u);
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
  AbacusLegalizer abacus(rb.bench->netlist, rb.bench->design);
  std::vector<CellId> failed;
  abacus.run(pl, cells, rows, &failed);
  for (CellId c : cells) {
    bool is_failed = false;
    for (CellId f : failed) is_failed |= (f == c);
    if (is_failed) continue;
    EXPECT_GE(pl[c].x - rb.bench->netlist.cell_width(c) / 2.0,
              core.center().x - 1e-6)
        << rb.bench->netlist.cell(c).name;
  }
}

TEST(Repair, FixesInjectedViolations) {
  RandomBench rb(11);
  Placement pl = rb.random_start(1);
  AbacusLegalizer(rb.bench->netlist, rb.bench->design).run_all(pl);
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
  const LegalizeStats stats =
      AbacusLegalizer(rb.bench->netlist, small).run_all(pl);
  ASSERT_GT(stats.cells_failed, 0u);

  const Placement before = pl;
  std::size_t untouched = 0;
  for (CellId c = 0; c < rb.bench->netlist.num_cells(); ++c) {
    if (rb.bench->netlist.cell(c).fixed) continue;
    if (pl[c] == start[c]) ++untouched;
  }
  EXPECT_EQ(untouched, stats.cells_failed);

  EXPECT_EQ(repair_legality(rb.bench->netlist, small, pl),
            stats.cells_failed);
  for (CellId c = 0; c < rb.bench->netlist.num_cells(); ++c) {
    EXPECT_EQ(pl[c], before[c]) << rb.bench->netlist.cell(c).name;
  }
}

TEST(Repair, NoopOnLegalInput) {
  RandomBench rb(13);
  Placement pl = rb.random_start(1);
  AbacusLegalizer(rb.bench->netlist, rb.bench->design).run_all(pl);
  const Placement before = pl;
  EXPECT_EQ(repair_legality(rb.bench->netlist, rb.bench->design, pl), 0u);
  for (CellId c = 0; c < rb.bench->netlist.num_cells(); ++c) {
    EXPECT_DOUBLE_EQ(pl[c].x, before[c].x);
  }
}

}  // namespace
}  // namespace dp::legal
