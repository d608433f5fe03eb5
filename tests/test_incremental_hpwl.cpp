#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dpgen/benchmarks.hpp"
#include "eval/incremental_hpwl.hpp"
#include "eval/metrics.hpp"
#include "util/prng.hpp"

namespace dp::eval {
namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;
using netlist::Placement;

/// Reference incident-net HPWL: the exact sum the seed detailer computed
/// from scratch for every candidate move (sorted unique incident nets,
/// weighted net_hpwl, ascending net-id order).
double ref_incident(const netlist::Netlist& nl, const Placement& pl,
                    const std::vector<CellId>& cells) {
  std::vector<NetId> nets;
  for (CellId c : cells) {
    for (PinId p : nl.cell(c).pins) nets.push_back(nl.pin(p).net);
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  double total = 0.0;
  for (NetId n : nets) total += nl.net(n).weight * net_hpwl(nl, n, pl);
  return total;
}

TEST(IncrementalHpwl, ConstructionMatchesFullEvalBitwise) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  IncrementalHpwl eng(bench.netlist, bench.placement);
  EXPECT_EQ(eng.total(), hpwl(bench.netlist, bench.placement));
  for (NetId n = 0; n < bench.netlist.num_nets(); ++n) {
    EXPECT_EQ(eng.net_hpwl(n), net_hpwl(bench.netlist, n, bench.placement))
        << "net " << n;
  }
}

TEST(IncrementalHpwl, RollbackIsANoop) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  Placement pl = bench.placement;
  IncrementalHpwl eng(bench.netlist, pl);
  const double before = eng.total();
  const Placement snapshot = pl;
  std::vector<CellId> cells{0, 1, 2};
  eng.trial_shift(cells, 3.25, -1.5);
  eng.rollback();
  EXPECT_EQ(eng.total(), before);
  EXPECT_EQ(eng.resync_total(), hpwl(bench.netlist, pl));
  for (CellId c = 0; c < bench.netlist.num_cells(); ++c) {
    EXPECT_EQ(pl[c].x, snapshot[c].x);
    EXPECT_EQ(pl[c].y, snapshot[c].y);
  }
}

// Thousands of seeded random trial/commit/rollback cycles against the
// from-scratch reference: every trial's before and after must match the
// seed computation bitwise, the running total must track the committed
// deltas exactly, and a periodic resync must agree with eval::hpwl to
// 0 ulp.
TEST(IncrementalHpwl, RandomizedMovesCommitsRollbacks) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  const netlist::Netlist& nl = bench.netlist;
  Placement pl = bench.placement;
  IncrementalHpwl eng(nl, pl);
  util::Rng rng(0xD5A11CE5ULL);
  const geom::Rect core = bench.design.core();

  double running = eng.total();
  ASSERT_EQ(running, hpwl(nl, pl));

  std::vector<CellId> cells;
  std::vector<geom::Point> centers;
  Placement scratch;
  std::size_t commits = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    cells.clear();
    const std::size_t k = 1 + rng.index(4);
    while (cells.size() < k) {
      const CellId c = static_cast<CellId>(rng.index(nl.num_cells()));
      if (nl.cell(c).fixed) continue;
      if (std::find(cells.begin(), cells.end(), c) != cells.end()) continue;
      cells.push_back(c);
    }

    const double expect_before = ref_incident(nl, pl, cells);
    scratch = pl;
    IncrementalHpwl::Trial t;
    if (rng.chance(0.5)) {
      centers.clear();
      for (std::size_t j = 0; j < cells.size(); ++j) {
        centers.push_back({rng.uniform(core.lx, core.hx),
                           rng.uniform(core.ly, core.hy)});
        scratch[cells[j]] = centers.back();
      }
      t = eng.trial_place(cells, centers);
    } else {
      const double dx = rng.uniform(-5.0, 5.0);
      const double dy = rng.uniform(-5.0, 5.0);
      for (CellId c : cells) {
        scratch[c].x += dx;
        scratch[c].y += dy;
      }
      t = eng.trial_shift(cells, dx, dy);
    }
    const double expect_after = ref_incident(nl, scratch, cells);
    ASSERT_EQ(t.before, expect_before) << "iter " << iter;
    ASSERT_EQ(t.after, expect_after) << "iter " << iter;

    if (rng.chance(0.5)) {
      eng.commit();
      ++commits;
      running += t.after - t.before;  // the same update commit applies
      ASSERT_EQ(eng.total(), running) << "iter " << iter;
      // The committed coordinates must equal the staged ones bitwise.
      for (CellId c : cells) {
        ASSERT_EQ(pl[c].x, scratch[c].x);
        ASSERT_EQ(pl[c].y, scratch[c].y);
      }
    } else {
      eng.rollback();
      ASSERT_EQ(eng.total(), running) << "iter " << iter;
    }

    if (commits > 0 && commits % 100 == 0) {
      // After resync the total is bitwise identical to a full recompute.
      running = eng.resync_total();
      ASSERT_EQ(running, hpwl(nl, pl)) << "iter " << iter;
    }
  }
  EXPECT_GT(commits, 100u);
  EXPECT_EQ(eng.resync_total(), hpwl(nl, pl));
}

// for_each_staged_net visits exactly the moved cells' nets, in ascending
// order, with before/after equal to a fresh eval::net_hpwl on the
// placement without/with the move; weighted and summed, the per-net
// deltas give the trial's after - before (up to the rounding of summing
// differences instead of differencing sums).
TEST(IncrementalHpwl, StagedNetsMatchFreshNetHpwl) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  const netlist::Netlist& nl = bench.netlist;
  Placement pl = bench.placement;
  IncrementalHpwl eng(nl, pl);
  util::Rng rng(23);
  const geom::Rect core = bench.design.core();

  std::vector<CellId> cells;
  std::vector<geom::Point> centers;
  std::vector<NetId> expect, visited;
  Placement moved;
  for (int iter = 0; iter < 2000; ++iter) {
    cells.clear();
    const std::size_t k = 1 + rng.index(4);
    while (cells.size() < k) {
      const CellId c = static_cast<CellId>(rng.index(nl.num_cells()));
      if (nl.cell(c).fixed) continue;
      if (std::find(cells.begin(), cells.end(), c) != cells.end()) continue;
      cells.push_back(c);
    }
    moved = pl;
    IncrementalHpwl::Trial t;
    if (rng.chance(0.5)) {
      centers.clear();
      for (const CellId c : cells) {
        centers.push_back({rng.uniform(core.lx, core.hx),
                           rng.uniform(core.ly, core.hy)});
        moved[c] = centers.back();
      }
      t = eng.trial_place(cells, centers);
    } else {
      const double dx = rng.uniform(-5.0, 5.0);
      const double dy = rng.uniform(-5.0, 5.0);
      for (const CellId c : cells) {
        moved[c].x += dx;
        moved[c].y += dy;
      }
      t = eng.trial_shift(cells, dx, dy);
    }

    expect.clear();
    for (const CellId c : cells) {
      for (const PinId p : nl.cell(c).pins) expect.push_back(nl.pin(p).net);
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());

    visited.clear();
    double weighted_delta = 0.0;
    eng.for_each_staged_net([&](NetId n, double before, double after) {
      visited.push_back(n);
      EXPECT_EQ(before, net_hpwl(nl, n, pl)) << "iter " << iter;
      EXPECT_EQ(after, net_hpwl(nl, n, moved)) << "iter " << iter;
      weighted_delta += nl.net(n).weight * (after - before);
    });
    ASSERT_EQ(visited, expect) << "iter " << iter;
    EXPECT_NEAR(weighted_delta, t.after - t.before,
                1e-12 * std::max(1.0, t.before + t.after))
        << "iter " << iter;

    if (rng.chance(0.5)) {
      eng.commit();
    } else {
      eng.rollback();
    }
  }
}

}  // namespace
}  // namespace dp::eval
