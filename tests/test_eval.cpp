#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/report_json.hpp"
#include "detail/detailed_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "eval/svg.hpp"
#include "legal/abacus.hpp"
#include "util/prng.hpp"
#include "temp_dir.hpp"

namespace dp::eval {
namespace {

using netlist::CellFunc;
using netlist::CellId;
using netlist::Placement;

struct RowBench {
  RowBench() {
    netlist::NetlistBuilder b(netlist::standard_library());
    c1 = b.add_cell("c1", CellFunc::kInv);
    c2 = b.add_cell("c2", CellFunc::kInv);
    nl.emplace(b.take());
    design.emplace(geom::Rect{0, 0, 10, 4}, 1.0, 0.25);
  }
  CellId c1, c2;
  std::optional<netlist::Netlist> nl;
  std::optional<netlist::Design> design;

  double w() const { return nl->cell_width(c1); }
};

TEST(Legality, CleanPlacementPasses) {
  RowBench rb;
  Placement pl(2);
  pl[rb.c1] = {0.25 + rb.w() / 2, 0.5};
  pl[rb.c2] = {2.0 + rb.w() / 2, 1.5};
  EXPECT_TRUE(check_legality(*rb.nl, *rb.design, pl).legal());
}

TEST(Legality, DetectsOverlap) {
  RowBench rb;
  Placement pl(2);
  pl[rb.c1] = {1.0 + rb.w() / 2, 0.5};
  pl[rb.c2] = {1.25 + rb.w() / 2, 0.5};  // overlaps c1 (width 0.75)
  const auto rep = check_legality(*rb.nl, *rb.design, pl);
  EXPECT_EQ(rep.overlaps, 1u);
  EXPECT_GT(rep.total_overlap_area, 0.0);
}

TEST(Legality, DetectsOffRow) {
  RowBench rb;
  Placement pl(2);
  pl[rb.c1] = {1.0 + rb.w() / 2, 0.7};  // not on a row boundary
  pl[rb.c2] = {5.0 + rb.w() / 2, 1.5};
  EXPECT_GT(check_legality(*rb.nl, *rb.design, pl).off_row, 0u);
}

TEST(Legality, DetectsOffSite) {
  RowBench rb;
  Placement pl(2);
  pl[rb.c1] = {1.1 + rb.w() / 2, 0.5};  // 1.1 not a site multiple
  pl[rb.c2] = {5.0 + rb.w() / 2, 1.5};
  EXPECT_GT(check_legality(*rb.nl, *rb.design, pl).off_site, 0u);
}

// A fixed cell inside the core is an obstacle: a movable cell on it
// overlaps. Two fixed cells never make a pair, and a pad that only
// touches the core edge blocks nothing.
TEST(Legality, DetectsCellOnFixedCellInCore) {
  netlist::NetlistBuilder b(netlist::standard_library());
  const CellId macro = b.add_cell("macro", CellFunc::kFullAdder, true);
  const CellId macro2 = b.add_cell("macro2", CellFunc::kFullAdder, true);
  const CellId pad = b.add_cell("pad", CellFunc::kInv, true);
  const CellId inv = b.add_cell("inv", CellFunc::kInv);
  const CellId above_pad = b.add_cell("above_pad", CellFunc::kInv);
  const auto nl = b.take();
  const netlist::Design design(geom::Rect{0, 0, 10, 4}, 1.0, 0.25);
  Placement pl(5);
  pl[macro] = {5.25, 1.5};       // FA, 2.5 wide: [4, 6.5] in row 1
  pl[macro2] = {7.0, 1.5};       // [5.75, 8.25], overlapping `macro`
  pl[pad] = {1.0, -0.5};         // below the core, touching its edge
  pl[above_pad] = {1.125, 0.5};  // row 0, right above the pad
  pl[inv] = {4.875, 1.5};        // [4.5, 5.25] in row 1, on `macro`
  const auto rep = check_legality(nl, design, pl);
  EXPECT_EQ(rep.overlaps, 1u);
  EXPECT_EQ(rep.out_of_core, 0u);
  const auto pairs = overlap_pairs(nl, design, pl);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, inv);
  EXPECT_EQ(pairs[0].b, macro);

  pl[inv].y = 2.5;  // the same x one row up is free
  EXPECT_TRUE(check_legality(nl, design, pl).legal());
}

TEST(OverlapPairs, WideCellOverlapsTwoNeighbors) {
  netlist::NetlistBuilder b(netlist::standard_library());
  // FA is 10 sites (2.5 units) wide; the two INVs (0.75) tuck under it.
  const CellId fa = b.add_cell("fa", CellFunc::kFullAdder);
  const CellId i1 = b.add_cell("i1", CellFunc::kInv);
  const CellId i2 = b.add_cell("i2", CellFunc::kInv);
  const auto nl = b.take();
  const netlist::Design design(geom::Rect{0, 0, 10, 4}, 1.0, 0.25);
  Placement pl(3);
  pl[fa] = {1.25, 0.5};  // spans [0, 2.5]
  pl[i1] = {0.5 + 0.375, 0.5};
  pl[i2] = {1.5 + 0.375, 0.5};
  const auto pairs = overlap_pairs(nl, design, pl);
  EXPECT_EQ(pairs.size(), 2u);
  const auto rep = check_legality(nl, design, pl);
  EXPECT_EQ(rep.overlaps, 2u);
}

TEST(OverlapPairs, RespectsPairCap) {
  netlist::NetlistBuilder b(netlist::standard_library());
  for (int i = 0; i < 10; ++i) {
    b.add_cell(std::string("c").append(std::to_string(i)), CellFunc::kInv);
  }
  const auto nl = b.take();
  const netlist::Design design(geom::Rect{0, 0, 10, 4}, 1.0, 0.25);
  Placement pl(10, geom::Point{1.0, 0.5});  // all stacked: 45 pairs
  bool truncated = true;
  EXPECT_EQ(overlap_pairs(nl, design, pl, 1e-6, 100000, &truncated).size(),
            45u);
  EXPECT_FALSE(truncated) << "complete sweep must clear the flag";
  EXPECT_EQ(overlap_pairs(nl, design, pl, 1e-6, 7, &truncated).size(), 7u);
  EXPECT_TRUE(truncated);
  // A cap just above the true pair count never fires.
  EXPECT_EQ(overlap_pairs(nl, design, pl, 1e-6, 46, &truncated).size(), 45u);
  EXPECT_FALSE(truncated);
  // check_legality carries the flag through its report.
  EXPECT_FALSE(check_legality(nl, design, pl).overlap_truncated);
}

TEST(Legality, DetectsOutOfCore) {
  RowBench rb;
  Placement pl(2);
  pl[rb.c1] = {-5.0, 0.5};
  pl[rb.c2] = {5.0 + rb.w() / 2, 1.5};
  EXPECT_GT(check_legality(*rb.nl, *rb.design, pl).out_of_core, 0u);
}

// Each per-cell flag fires on its own violation only.
TEST(Legality, CellLegalityFlagsOneViolationEach) {
  RowBench rb;
  Placement pl(2);
  const auto flags = [&](geom::Point p) {
    pl[rb.c1] = p;
    const CellLegality cl = cell_legality(*rb.nl, *rb.design, pl, rb.c1);
    return std::array<bool, 3>{cl.off_row, cl.off_site, cl.out_of_core};
  };
  const double cx = 1.0 + rb.w() / 2;
  EXPECT_EQ(flags({cx, 0.5}), (std::array<bool, 3>{false, false, false}));
  EXPECT_EQ(flags({cx, 0.7}), (std::array<bool, 3>{true, false, false}));
  EXPECT_EQ(flags({cx + 0.1, 0.5}), (std::array<bool, 3>{false, true, false}));
  EXPECT_EQ(flags({cx - 2.0, 0.5}), (std::array<bool, 3>{false, false, true}));
}

TEST(AlignmentScore, PerfectArrayScoresZero) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  Placement pl = bench.placement;
  const auto& g = bench.truth.groups[0];
  for (std::size_t bit = 0; bit < g.bits; ++bit) {
    for (std::size_t s = 0; s < g.stages; ++s) {
      const CellId c = g.at(bit, s);
      if (c != netlist::kInvalidId) {
        pl[c] = {static_cast<double>(s) * 3.0,
                 static_cast<double>(bit) * 1.0};
      }
    }
  }
  netlist::StructureAnnotation one;
  one.groups.push_back(g);
  EXPECT_NEAR(alignment_score(bench.netlist, pl, one).rms_misalignment, 0.0,
              1e-12);
}

// Bits run along y: the same array with its slices in columns and its
// stages in rows is misaligned, not scored in its better orientation.
TEST(AlignmentScore, TransposedArrayIsMisaligned) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  Placement pl = bench.placement;
  const auto& g = bench.truth.groups[0];
  for (std::size_t bit = 0; bit < g.bits; ++bit) {
    for (std::size_t s = 0; s < g.stages; ++s) {
      const CellId c = g.at(bit, s);
      if (c != netlist::kInvalidId) {
        pl[c] = {static_cast<double>(bit) * 3.0,
                 static_cast<double>(s) * 1.0};
      }
    }
  }
  netlist::StructureAnnotation one;
  one.groups.push_back(g);
  EXPECT_GT(alignment_score(bench.netlist, pl, one).rms_misalignment, 2.0);
}

TEST(AlignmentScore, ScrambledArrayScoresHigh) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  Placement pl = bench.placement;
  util::Rng rng(8);
  for (CellId c = 0; c < bench.netlist.num_cells(); ++c) {
    pl[c] = {rng.uniform(0, 30), rng.uniform(0, 30)};
  }
  EXPECT_GT(alignment_score(bench.netlist, pl, bench.truth).rms_misalignment,
            2.0);
}

TEST(DatapathHpwl, SubsetOfTotal) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("mix50");
  const double total = hpwl(bench.netlist, bench.placement);
  const double dp = datapath_hpwl(bench.netlist, bench.placement, bench.truth);
  EXPECT_LE(dp, total + 1e-9);
  EXPECT_GT(dp, 0.0);
}

// Random single-cell relocations and whole-lane shifts on a legalized
// design: the scores are the weighted net_hpwl sums over the moved cells'
// nets, the per-net list is ascending and unique, and undo restores every
// coordinate bitwise.
TEST(MoveScorer, MatchesNetHpwlAndUndoesBitwise) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_alu32");
  const netlist::Netlist& nl = bench.netlist;
  Placement pl = bench.placement;
  util::Rng rng(7);
  const geom::Rect& core = bench.design.core();
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (!nl.cell(c).fixed) {
      pl[c] = {rng.uniform(core.lx, core.hx), rng.uniform(core.ly, core.hy)};
    }
  }
  legal::abacus_all(nl, bench.design, pl);
  std::vector<std::vector<CellId>> lanes;
  for (const auto& g : bench.truth.groups) {
    for (std::size_t bit = 0; bit < g.bits; ++bit) {
      std::vector<CellId> lane = g.slice(bit);
      if (!lane.empty()) lanes.push_back(std::move(lane));
    }
  }
  ASSERT_FALSE(lanes.empty());

  MoveScorer scorer(nl, pl);
  std::vector<CellId> cells;
  std::vector<geom::Point> centers;
  std::size_t kept = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    cells.clear();
    centers.clear();
    if (rng.chance(0.5)) {
      CellId c = 0;
      do {
        c = static_cast<CellId>(rng.index(nl.num_cells()));
      } while (nl.cell(c).fixed);
      cells.push_back(c);
      centers.push_back(
          {rng.uniform(core.lx, core.hx), rng.uniform(core.ly, core.hy)});
    } else {
      cells = lanes[rng.index(lanes.size())];
      const double dx = rng.uniform(-5.0, 5.0);
      const double dy = rng.uniform(-5.0, 5.0);
      for (CellId c : cells) centers.push_back({pl[c].x + dx, pl[c].y + dy});
    }
    const Placement start = pl;
    Placement moved = pl;
    for (std::size_t k = 0; k < cells.size(); ++k) moved[cells[k]] = centers[k];

    const MoveScorer::Score s = scorer.move(cells, centers);
    std::vector<netlist::NetId> expect;
    for (CellId c : cells) {
      for (netlist::PinId p : nl.cell_pins(c)) expect.push_back(nl.pin(p).net);
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    std::vector<netlist::NetId> got;
    double before = 0.0, after = 0.0;
    for (const NetChange& nc : scorer.nets()) {
      got.push_back(nc.net);
      ASSERT_EQ(nc.before, net_hpwl(nl, nc.net, start)) << "iter " << iter;
      ASSERT_EQ(nc.after, net_hpwl(nl, nc.net, moved)) << "iter " << iter;
      before += nl.net(nc.net).weight * net_hpwl(nl, nc.net, start);
      after += nl.net(nc.net).weight * net_hpwl(nl, nc.net, moved);
    }
    ASSERT_EQ(got, expect) << "iter " << iter;
    ASSERT_EQ(s.before, before) << "iter " << iter;
    ASSERT_EQ(s.after, after) << "iter " << iter;
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      ASSERT_EQ(pl[c].x, moved[c].x);
      ASSERT_EQ(pl[c].y, moved[c].y);
    }

    if (rng.chance(0.3)) {
      ++kept;
      continue;
    }
    scorer.undo();
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      ASSERT_EQ(pl[c].x, start[c].x) << "iter " << iter << " cell " << c;
      ASSERT_EQ(pl[c].y, start[c].y) << "iter " << iter << " cell " << c;
    }
  }
  EXPECT_GT(kept, 100u);
}

/// Random scatter + Abacus legalization of `bench`.
Placement legalized_scatter(const dpgen::Benchmark& bench,
                            std::uint64_t seed) {
  Placement pl = bench.placement;
  util::Rng rng(seed);
  const geom::Rect& core = bench.design.core();
  for (CellId c = 0; c < bench.netlist.num_cells(); ++c) {
    if (!bench.netlist.cell(c).fixed) {
      pl[c] = {rng.uniform(core.lx, core.hx), rng.uniform(core.ly, core.hy)};
    }
  }
  legal::abacus_all(bench.netlist, bench.design, pl);
  return pl;
}

/// Drives `sequences` random runs of 200 moves on `bench`, each move one
/// cell's relocation within a few rows or two cells' swap, then kept,
/// undone, or vetoed by a random guard the way the detailer vetoes an
/// improving move. After each run every kept net HPWL is eval::net_hpwl
/// of the placement as it stands, and the kept total is eval::hpwl, bit
/// for bit.
void expect_kept_hpwl_coherent(const dpgen::Benchmark& bench,
                               std::uint64_t seed, int sequences) {
  const netlist::Netlist& nl = bench.netlist;
  Placement pl = legalized_scatter(bench, seed);
  std::vector<CellId> movable;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (!nl.cell(c).fixed) movable.push_back(c);
  }
  MoveScorer scorer(nl, pl);
  util::Rng rng(seed + 1);
  std::size_t kept = 0, undone = 0, vetoed = 0;
  for (int seq = 0; seq < sequences; ++seq) {
    for (int m = 0; m < 200; ++m) {
      std::vector<CellId> cells{movable[rng.index(movable.size())]};
      std::vector<geom::Point> centers;
      if (rng.chance(0.5)) {
        centers.push_back({pl[cells[0]].x + rng.uniform(-8.0, 8.0),
                           pl[cells[0]].y + rng.uniform(-3.0, 3.0)});
      } else {
        CellId other = cells[0];
        while (other == cells[0]) other = movable[rng.index(movable.size())];
        cells.push_back(other);
        centers = {pl[other], pl[cells[0]]};
      }
      const MoveScorer::Score s = scorer.move(cells, centers);
      const double roll = rng.uniform();
      if (s.after + 1e-12 < s.before && roll < 0.6) {
        if (rng.chance(0.5)) {  // the guard allows the move: keep it
          ++kept;
          continue;
        }
        ++vetoed;
      } else if (roll < 0.2) {  // kept although it does not improve
        ++kept;
        continue;
      } else {
        ++undone;
      }
      scorer.undo();
    }
    // The run's last move may be kept and not yet committed: every other
    // run reads the total before the nets, the rest after them.
    SCOPED_TRACE(::testing::Message() << bench.name << " run " << seq);
    const std::uint64_t total = std::bit_cast<std::uint64_t>(hpwl(nl, pl));
    if (seq % 2 == 0) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scorer.total_hpwl()), total);
    }
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(scorer.kept_hpwl(n)),
                std::bit_cast<std::uint64_t>(net_hpwl(nl, n, pl)))
          << "net " << n;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(scorer.total_hpwl()), total);
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(undone, 0u);
  EXPECT_GT(vetoed, 0u);
}

TEST(MoveScorer, KeptHpwlFollowsKeptUndoneAndVetoedMoves) {
  expect_kept_hpwl_coherent(dpgen::make_benchmark("dp_add32"), 3, 20);
  expect_kept_hpwl_coherent(dpgen::make_scaled(4000), 4, 5);
}

// The detailer's opening and closing HPWL, summed from the scorer's kept
// values, are eval::hpwl of its input and output, bit for bit, with a
// guard that vetoes about half of the improving moves.
TEST(MoveScorer, DetailerHpwlIsEvalHpwlOfItsOutput) {
  for (const dpgen::Benchmark& bench :
       {dpgen::make_benchmark("dp_add32"), dpgen::make_scaled(4000)}) {
    SCOPED_TRACE(bench.name);
    Placement pl = legalized_scatter(bench, 9);
    const double start = hpwl(bench.netlist, pl);
    util::Rng rng(10);
    std::size_t guarded_nets = 0;
    detail::DetailOptions opt;
    opt.move_guard = [&](std::span<const NetChange> nets) {
      guarded_nets += nets.size();
      return rng.chance(0.5);
    };
    const detail::DetailStats stats =
        detail::detailed_place(bench.netlist, bench.design, pl, opt);
    const detail::Profile& p = stats.profile;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.hpwl_before),
              std::bit_cast<std::uint64_t>(start));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.hpwl_after),
              std::bit_cast<std::uint64_t>(hpwl(bench.netlist, pl)));
    EXPECT_GT(p.guard_vetoes, 0u);
    EXPECT_GT(p.slide.accepted + p.swap.accepted, 0u);
    // Every candidate scores its moved cells' nets, the guarded ones too.
    EXPECT_GE(p.rescans, guarded_nets);
    EXPECT_GE(p.rescans, p.slide.candidates + p.swap.candidates);
  }
}

std::string read_and_remove(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return content;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(Svg, LayerElementCountsMatchDesign) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  const std::string path = test::temp_dir() + "svg_layers.svg";
  write_svg(path, bench.netlist, bench.design, bench.placement,
            &bench.truth);
  const std::string content = read_and_remove(path);

  EXPECT_EQ(count_occurrences(content, "class='core'"), 1u);
  EXPECT_EQ(count_occurrences(content, "class='heat'"), 0u)
      << "no heatmap requested";
  // One rect per movable cell; datapath members carry the extra class.
  std::size_t movable = 0, datapath = 0;
  std::vector<bool> in_group(bench.netlist.num_cells(), false);
  for (const auto& g : bench.truth.groups) {
    for (netlist::CellId c : g.cells) {
      if (c != netlist::kInvalidId) in_group[c] = true;
    }
  }
  for (netlist::CellId c = 0; c < bench.netlist.num_cells(); ++c) {
    if (bench.netlist.cell(c).fixed) continue;
    ++movable;
    if (in_group[c]) ++datapath;
  }
  EXPECT_EQ(count_occurrences(content, "class='cell"), movable);
  EXPECT_EQ(count_occurrences(content, "class='cell dp'"), datapath);
  EXPECT_GT(datapath, 0u);
}

TEST(Svg, HeatmapLayerTogglesOneRectPerBin) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  const std::string path = test::temp_dir() + "svg_heat.svg";
  SvgOptions options;
  options.heatmap_bins = 4;
  options.heatmap.assign(16, 0.5);
  options.heatmap[5] = 2.0;  // a hotspot renders like any other bin
  write_svg(path, bench.netlist, bench.design, bench.placement, options);
  const std::string content = read_and_remove(path);
  EXPECT_EQ(count_occurrences(content, "class='heat'"), 16u);
  EXPECT_EQ(count_occurrences(content, "class='core'"), 1u);

  // Undersized heatmap data: the layer is skipped rather than read out
  // of bounds.
  options.heatmap.resize(15);
  write_svg(path, bench.netlist, bench.design, bench.placement, options);
  EXPECT_EQ(count_occurrences(read_and_remove(path), "class='heat'"), 0u);
}

TEST(Svg, CriticalPathLayerTogglesOnPoints) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  const std::string path = test::temp_dir() + "svg_critpath.svg";
  SvgOptions options;
  options.critical_path = {{1.0, 1.0}, {5.0, 2.0}, {9.0, 3.0}};
  write_svg(path, bench.netlist, bench.design, bench.placement, options);
  const std::string content = read_and_remove(path);
  // One polyline plus two endpoint markers.
  EXPECT_EQ(count_occurrences(content, "class='critpath'"), 3u);
  EXPECT_EQ(count_occurrences(content, "<polyline"), 1u);

  // A single point is not a path; the layer stays off.
  options.critical_path.resize(1);
  write_svg(path, bench.netlist, bench.design, bench.placement, options);
  EXPECT_EQ(count_occurrences(read_and_remove(path), "class='critpath'"),
            0u);
}

TEST(Svg, UnwritablePathThrows) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  const std::string path = test::temp_dir() + "no_such_dir/x.svg";
  EXPECT_THROW(
      write_svg(path, bench.netlist, bench.design, bench.placement),
      std::runtime_error);
}

TEST(ReportJson, SchemaVersionLeadsAndEscapesHold) {
  // json_escape must neutralize everything JSON forbids in a string.
  EXPECT_EQ(check::json_escape("plain"), "plain");
  EXPECT_EQ(check::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(check::json_escape("l1\nl2\tt\rr"), "l1\\nl2\\tt\\rr");
  EXPECT_EQ(check::json_escape(std::string("x\x01y\x1f", 4)),
            "x\\u0001y\\u001f");
  EXPECT_EQ(check::json_escape("\b\f"), "\\b\\f");

  core::PlaceReport report;
  const std::string json = core::report_to_json(report);
  EXPECT_EQ(json.rfind("{\"schema_version\":7,", 0), 0u)
      << "schema_version must be the first key: " << json;
  EXPECT_NE(json.find("\"timing\":null"), std::string::npos)
      << "timing not measured -> null section";
  EXPECT_NE(json.find("\"stop_reason\":\"overflow_reached\""),
            std::string::npos);
  report.gp_result.stop_reason = gp::GpStop::kOuterCap;
  EXPECT_NE(core::report_to_json(report).find("\"stop_reason\":\"outer_cap\""),
            std::string::npos);
  report.gp_result.profile.solver.seconds = 0.25;
  report.gp_result.profile.quadratic.seconds = 0.5;
  report.gp_result.profile.outer_scans.seconds = 0.125;
  EXPECT_NE(core::report_to_json(report).find(
                "\"solver_s\":0.25,\"quadratic_s\":0.5,"
                "\"outer_scans_s\":0.125}"),
            std::string::npos);
}

TEST(ReportJson, TimingSectionCarriesCriticalPathNames) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  core::PlaceReport report;
  report.timing_measured = true;
  report.timing.wns = -0.5;
  report.timing.critical_path = {{0, 0.0}, {1, 1.5}};
  const std::string json = core::report_to_json(report, &bench.netlist);
  EXPECT_NE(json.find("\"wns\":-0.5"), std::string::npos);
  EXPECT_NE(json.find("\"cell\":"), std::string::npos);
  EXPECT_NE(json.find("\"port\":"), std::string::npos);
  // Without a netlist the trace still serializes, ids only.
  const std::string bare = core::report_to_json(report);
  EXPECT_NE(bare.find("\"critical_path\":[{\"pin\":0"), std::string::npos);
  EXPECT_EQ(bare.find("\"cell\":"), std::string::npos);
}

}  // namespace
}  // namespace dp::eval
