// route::CongestionMap (RUDY + pin surcharge) and the cell-inflation
// feedback: hand-computed rasterization, demand conservation, grids pinned
// to recorded bits, report metric sanity, inflation eligibility/clamping,
// and the placer's inflation inside global placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "dpgen/generator.hpp"
#include "route/congestion.hpp"
#include "route/inflation.hpp"
#include "util/prng.hpp"

namespace dp::route {
namespace {

using netlist::CellFunc;
using netlist::CellId;
using netlist::NetId;
using netlist::NetlistBuilder;
using netlist::Placement;

double sum(std::span<const double> v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// The row-major bin of `map` holding pin `p` at `pl`.
std::size_t pin_bin(const CongestionMap& map, const netlist::Netlist& nl,
                    netlist::PinId p, const Placement& pl) {
  const geom::Point pos = nl.pin_position(p, pl);
  return map.bin_y(pos.y) * map.bins_per_side() + map.bin_x(pos.x);
}

/// Two inverters on one weighted net inside a 10x10 core.
struct TwoCellFixture {
  explicit TwoCellFixture(double weight = 1.0)
      : builder(netlist::standard_library()) {
    a = builder.add_cell("a", CellFunc::kInv);
    b = builder.add_cell("b", CellFunc::kInv);
    const NetId n = builder.add_net("n", weight);
    builder.connect(a, "Y", n);
    builder.connect(b, "A", n);
    nl.emplace(builder.take());
    design.emplace(geom::Rect{0, 0, 10, 10}, 1.0, 0.25);
  }

  geom::Rect pin_box(const Placement& pl) const {
    geom::Rect box;
    for (netlist::PinId p = 0; p < nl->num_pins(); ++p) {
      box.expand(nl->pin_position(p, pl));
    }
    return box;
  }

  NetlistBuilder builder;
  CellId a, b;
  std::optional<netlist::Netlist> nl;
  std::optional<netlist::Design> design;
};

TEST(CongestionMap, TotalDemandConservedInsideCore) {
  TwoCellFixture f(2.0);
  Placement pl(2);
  pl[f.a] = {2.0, 3.0};
  pl[f.b] = {7.0, 6.0};  // bbox well inside the core: nothing clips away
  CongestionMap map(*f.nl, *f.design, {});
  map.build(pl);

  const geom::Rect box = f.pin_box(pl);
  const double surcharge =
      static_cast<double>(f.nl->num_pins()) * kPinWeight / 2.0;
  EXPECT_NEAR(sum(map.demand_h()), 2.0 * box.width() + surcharge, 1e-9);
  EXPECT_NEAR(sum(map.demand_v()), 2.0 * box.height() + surcharge, 1e-9);
}

TEST(CongestionMap, PinSurchargeLandsInEachPinsBin) {
  // On a weight-0 net the RUDY terms add +0, so every bin holds exactly
  // kPinWeight / 2 per pin in it, in both directions.
  TwoCellFixture f(0.0);
  CongestionOptions opt;
  opt.bins_per_side = 2;
  CongestionMap map(*f.nl, *f.design, opt);
  for (const geom::Point b_pos : {geom::Point{2.5, 2.0},    // a's bin
                                  geom::Point{7.0, 7.0}}) {  // opposite bin
    Placement pl(2);
    pl[f.a] = {2.0, 2.0};
    pl[f.b] = b_pos;
    map.build(pl);
    std::vector<double> expected(4, 0.0);
    for (netlist::PinId p = 0; p < f.nl->num_pins(); ++p) {
      expected[pin_bin(map, *f.nl, p, pl)] += kPinWeight / 2.0;
    }
    EXPECT_EQ(std::vector<double>(map.demand_h().begin(),
                                  map.demand_h().end()),
              expected);
    EXPECT_EQ(std::vector<double>(map.demand_v().begin(),
                                  map.demand_v().end()),
              expected);
  }
}

TEST(CongestionMap, HandComputedCornerToCornerSplit) {
  // Pins far outside the core: the expanded bbox clips to exactly the
  // core, so on a 2x2 grid every bin receives wire/4, and each corner
  // bin additionally gets one pin's surcharge.
  TwoCellFixture f;
  Placement pl(2);
  pl[f.a] = {-100.0, -100.0};
  pl[f.b] = {100.0, 100.0};
  CongestionOptions opt;
  opt.bins_per_side = 2;
  CongestionMap map(*f.nl, *f.design, opt);
  map.build(pl);

  const geom::Rect box = f.pin_box(pl);
  const double half_pin = kPinWeight / 2.0;
  // Row-major: (0,0), (1,0), (0,1), (1,1). One pin lands in bin (0,0),
  // the other in (1,1); the off-diagonal bins are pure RUDY quarters.
  ASSERT_EQ(pin_bin(map, *f.nl, 0, pl), 0u);
  ASSERT_EQ(pin_bin(map, *f.nl, 1, pl), 3u);
  for (const auto& [d, wire] :  // weight 1
       {std::pair{map.demand_h(), box.width()},
        std::pair{map.demand_v(), box.height()}}) {
    EXPECT_DOUBLE_EQ(d[1], wire / 4.0);
    EXPECT_DOUBLE_EQ(d[2], wire / 4.0);
    EXPECT_DOUBLE_EQ(d[0], wire / 4.0 + half_pin);
    EXPECT_DOUBLE_EQ(d[3], wire / 4.0 + half_pin);
  }
}

TEST(CongestionMap, SinglePinNetContributesOnlySurcharge) {
  NetlistBuilder b(netlist::standard_library());
  const CellId c = b.add_cell("c", CellFunc::kInv);
  const NetId n = b.add_net("n");
  b.connect(c, "Y", n);
  const auto nl = b.take();
  const netlist::Design design(geom::Rect{0, 0, 10, 10}, 1.0, 0.25);
  Placement pl(1);
  pl[c] = {5.0, 5.0};
  CongestionMap map(nl, design, {});
  map.build(pl);
  EXPECT_DOUBLE_EQ(sum(map.demand_h()), kPinWeight / 2.0);
  EXPECT_DOUBLE_EQ(sum(map.demand_v()), kPinWeight / 2.0);
  const std::size_t i = pin_bin(map, nl, 0, pl);
  EXPECT_DOUBLE_EQ(map.demand_h()[i], kPinWeight / 2.0);
  EXPECT_DOUBLE_EQ(map.demand_v()[i], kPinWeight / 2.0);
}

TEST(CongestionMap, RebuildOverwritesPreviousGrids) {
  TwoCellFixture f;
  Placement pl(2);
  pl[f.a] = {2.0, 2.0};
  pl[f.b] = {8.0, 8.0};
  CongestionMap map(*f.nl, *f.design, {});
  map.build(pl);
  const double first = sum(map.demand_h());
  map.build(pl);  // identical placement: grids must not accumulate
  EXPECT_DOUBLE_EQ(sum(map.demand_h()), first);
}

/// FNV-1a over the bit patterns of `v`, in order.
std::uint64_t bit_checksum(std::span<const double> v) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double x : v) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Recorded from the fork-join build(): the serial nets-then-pins sweep
// must sum every bin in the same order, so a reordered loop fails here.
TEST(CongestionMap, GridsMatchRecordedBits) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("mix50");
  CongestionMap map(bench.netlist, bench.design, {});
  map.build(bench.placement);
  EXPECT_EQ(map.bins_per_side(), 64u);
  EXPECT_EQ(bit_checksum(map.demand_h()), 0x2054bf50481ca4c6ull);
  EXPECT_EQ(bit_checksum(map.demand_v()), 0x73a92c25d03061d5ull);
}

TEST(CongestionReport, MetricsAreOrderedAndBounded) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_alu32");
  CongestionMap map(bench.netlist, bench.design, {});
  map.build(bench.placement);
  const CongestionReport rep = map.report();
  EXPECT_EQ(rep.bins, map.bins_per_side());
  EXPECT_DOUBLE_EQ(rep.peak, std::max(rep.peak_h, rep.peak_v));
  // Worst-0.5% mean dominates the wider percentiles; the peak bounds all.
  EXPECT_GE(rep.peak + 1e-12, rep.ace_0_5);
  EXPECT_GE(rep.ace_0_5 + 1e-12, rep.ace_1);
  EXPECT_GE(rep.ace_1 + 1e-12, rep.ace_2);
  EXPECT_GE(rep.ace_2 + 1e-12, rep.ace_5);
  EXPECT_GE(rep.ace_5, 0.0);
  EXPECT_GE(rep.overflow_frac, 0.0);
  EXPECT_LE(rep.overflow_frac, 1.0);
  EXPECT_EQ(rep.overflowed(), rep.overflowed_bins > 0);
  // ratios is the report's per-bin view, bit-equal to the ratio() that
  // inflation reads: its max is the peak.
  ASSERT_EQ(rep.ratios.size(), rep.bins * rep.bins);
  double max_ratio = 0.0;
  for (std::size_t by = 0; by < rep.bins; ++by) {
    for (std::size_t bx = 0; bx < rep.bins; ++bx) {
      const double r = rep.ratios[by * rep.bins + bx];
      EXPECT_EQ(r, map.ratio(bx, by)) << bx << "," << by;
      max_ratio = std::max(max_ratio, r);
    }
  }
  EXPECT_DOUBLE_EQ(max_ratio, rep.peak);
}

TEST(Inflation, ScalesOnlyEligibleCellsInOverflowedBins) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  const std::size_t n = bench.netlist.num_cells();
  // Two base scales, so the cap is checked relative to each cell's own.
  std::vector<double> base(n);
  for (CellId c = 0; c < n; ++c) base[c] = c % 3 == 0 ? 0.5 : 1.0;
  std::vector<bool> eligible(n, true);
  for (CellId c = 0; c < n; c += 2) eligible[c] = false;

  // The generated start piles every movable cell at the core center, so
  // its peak bins lie far above the threshold and the cap binds; a
  // uniform scatter leaves peaks between the threshold and the cap, where
  // the slope sets the growth.
  Placement scatter = bench.placement;
  util::Rng rng(3);
  const geom::Rect& core = bench.design.core();
  for (CellId c = 0; c < n; ++c) {
    if (!bench.netlist.cell(c).fixed) {
      scatter[c] = {rng.uniform(core.lx, core.hx),
                    rng.uniform(core.ly, core.hy)};
    }
  }
  CongestionMap map(bench.netlist, bench.design, {});
  std::size_t capped = 0, sloped = 0;
  const Placement* const starts[] = {&bench.placement, &scatter};
  for (const Placement* pl : starts) {
    map.build(*pl);
    ASSERT_GT(map.report().peak, kInflationThreshold);
    std::vector<double> scale = base;
    const std::size_t grown =
        inflate_cells(bench.netlist, map, *pl, eligible, scale);
    EXPECT_GT(grown, 0u);
    std::size_t above = 0;
    for (CellId c = 0; c < n; ++c) {
      const double r = map.ratio(map.bin_x((*pl)[c].x), map.bin_y((*pl)[c].y));
      double want = base[c];
      if (!bench.netlist.cell(c).fixed && eligible[c] &&
          r > kInflationThreshold) {
        const double cap = base[c] * kInflationMaxScale;
        want = std::min(
            base[c] * (1.0 + kInflationRate * (r - kInflationThreshold)), cap);
        ++above;
        ++(want == cap ? capped : sloped);
      }
      EXPECT_EQ(scale[c], want) << "cell " << c << " ratio " << r;
    }
    EXPECT_EQ(above, grown);
  }
  EXPECT_GT(capped, 0u);
  EXPECT_GT(sloped, 0u);
}

/// One baseline-flow placement of dp_add32 with the given congestion
/// switches.
struct RoutedRun {
  core::PlaceReport report;
  Placement pl;
};

RoutedRun place_add32(bool measure, bool refine, std::size_t threads) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  core::PlacerConfig c;
  c.structure_aware = false;
  c.num_threads = threads;
  c.congestion.measure = measure;
  c.congestion.refine = refine;
  RoutedRun run;
  run.pl = bench.placement;
  core::StructurePlacer placer(bench.netlist, bench.design, c);
  run.report = placer.place(run.pl, nullptr);
  return run;
}

bool same_bits(const Placement& a, const Placement& b) {
  if (a.size() != b.size()) return false;
  for (CellId c = 0; c < a.size(); ++c) {
    if (std::bit_cast<std::uint64_t>(a[c].x) !=
            std::bit_cast<std::uint64_t>(b[c].x) ||
        std::bit_cast<std::uint64_t>(a[c].y) !=
            std::bit_cast<std::uint64_t>(b[c].y)) {
      return false;
    }
  }
  return true;
}

TEST(Inflation, PlacerInflatesInsideGpDeterministically) {
  const RoutedRun measured = place_add32(true, false, 1);
  ASSERT_TRUE(measured.report.congestion_measured);
  EXPECT_GT(measured.report.congestion_gp.peak, 0.0);
  EXPECT_EQ(measured.report.congestion_refine_iters, 0u);

  // Measuring only reads the placement.
  const RoutedRun plain = place_add32(false, false, 1);
  EXPECT_FALSE(plain.report.congestion_measured);
  EXPECT_TRUE(same_bits(plain.pl, measured.pl));

  // Inflation moves it, and legally.
  const RoutedRun refined = place_add32(true, true, 1);
  EXPECT_GT(refined.report.congestion_refine_iters, 0u);
  EXPECT_GT(refined.report.congestion_inflated_cells, 0u);
  EXPECT_FALSE(same_bits(refined.pl, measured.pl));
  EXPECT_TRUE(refined.report.legality.legal());

  const RoutedRun refined4 = place_add32(true, true, 4);
  EXPECT_TRUE(same_bits(refined.pl, refined4.pl));
  EXPECT_EQ(refined.report.congestion.peak, refined4.report.congestion.peak);
  EXPECT_EQ(refined.report.congestion_refine_iters,
            refined4.report.congestion_refine_iters);
  EXPECT_EQ(refined.report.congestion_inflated_cells,
            refined4.report.congestion_inflated_cells);
}

// A placed design's peak stays below the threshold: nothing inflates.
TEST(Inflation, NoOpBelowThreshold) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  const RoutedRun placed = place_add32(false, false, 1);
  CongestionMap map(bench.netlist, bench.design, {});
  map.build(placed.pl);
  ASSERT_LE(map.report().peak, kInflationThreshold);
  const std::size_t n = bench.netlist.num_cells();
  const std::vector<double> base(n, 1.0);
  const std::vector<bool> eligible(n, true);
  std::vector<double> scale = base;
  EXPECT_EQ(inflate_cells(bench.netlist, map, placed.pl, eligible, scale),
            0u);
  EXPECT_EQ(scale, base);
}

// The inflation budget follows the design's own utilization: a design
// denser than the suite's 0.7 (here above the 0.75 of the core that the
// suite's budget works out to) still inflates at its checkpoint.
TEST(Inflation, DenseDesignStillInflates) {
  dpgen::Generator gen("dense_add", 1);
  const dpgen::Bus a = gen.input_bus("a", 32);
  const dpgen::Bus b = gen.input_bus("b", 32);
  const dpgen::Bus sum = gen.add_pipelined_adder("add", a, b, 3);
  const auto flags = gen.add_glue("ctl", 600, sum);
  gen.output_bus("sum", sum);
  gen.output_bus("flags", dpgen::Bus(flags.begin(), flags.end()));
  dpgen::Benchmark bench = gen.finish(0.85);
  ASSERT_GT(bench.netlist.movable_area() / bench.design.core().area(), 0.8);

  core::PlacerConfig c;
  c.structure_aware = false;
  c.congestion.refine = true;
  core::StructurePlacer placer(bench.netlist, bench.design, c);
  const core::PlaceReport report = placer.place(bench.placement, nullptr);
  EXPECT_EQ(report.congestion_refine_iters, 1u);
  EXPECT_GT(report.congestion_inflated_cells, 0u);
  EXPECT_TRUE(report.legality.legal());
}

}  // namespace
}  // namespace dp::route
