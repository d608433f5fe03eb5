#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "detail/detailed_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "legal/abacus.hpp"
#include "util/prng.hpp"

namespace dp::detail {
namespace {

using netlist::CellId;
using netlist::Placement;

struct LegalBench {
  explicit LegalBench(std::uint64_t seed) {
    dpgen::Generator gen("t", seed);
    gen.add_control_block("ctl", 50);
    auto a = gen.input_bus("a", 8);
    auto b = gen.input_bus("b", 8);
    auto s = gen.add_pipelined_adder("add", a, b, 2);
    gen.output_bus("s", s);
    bench.emplace(gen.finish());
    pl = bench->placement;
    util::Rng rng(seed * 3 + 1);
    const geom::Rect& core = bench->design.core();
    for (CellId c = 0; c < bench->netlist.num_cells(); ++c) {
      if (!bench->netlist.cell(c).fixed) {
        pl[c] = {rng.uniform(core.lx, core.hx),
                 rng.uniform(core.ly, core.hy)};
      }
    }
    legal::AbacusLegalizer(bench->netlist, bench->design).run_all(pl);
  }
  std::optional<dpgen::Benchmark> bench;
  Placement pl;
};

class DetailProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetailProperty, NeverIncreasesHpwl) {
  LegalBench lb(GetParam());
  const double before = eval::hpwl(lb.bench->netlist, lb.pl);
  DetailedPlacer placer(lb.bench->netlist, lb.bench->design);
  const DetailStats stats = placer.run(lb.pl);
  EXPECT_LE(stats.hpwl_after, before + 1e-9);
  EXPECT_DOUBLE_EQ(stats.hpwl_before, before);
}

TEST_P(DetailProperty, PreservesLegality) {
  LegalBench lb(GetParam());
  ASSERT_TRUE(
      eval::check_legality(lb.bench->netlist, lb.bench->design, lb.pl)
          .legal());
  DetailedPlacer placer(lb.bench->netlist, lb.bench->design);
  placer.run(lb.pl);
  EXPECT_TRUE(
      eval::check_legality(lb.bench->netlist, lb.bench->design, lb.pl)
          .legal());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetailProperty,
                         ::testing::Values(1, 2, 3, 4));

TEST(Detail, ActuallyImprovesRandomLegalPlacement) {
  LegalBench lb(9);
  DetailedPlacer placer(lb.bench->netlist, lb.bench->design);
  const DetailStats stats = placer.run(lb.pl);
  EXPECT_LT(stats.hpwl_after, stats.hpwl_before);
  EXPECT_GT(stats.profile.slide.accepted + stats.profile.swap.accepted, 0u);
}

TEST(Detail, MaxPassesZeroIsNoop) {
  LegalBench lb(10);
  const Placement before = lb.pl;
  DetailedPlacer placer(lb.bench->netlist, lb.bench->design);
  DetailOptions opt;
  opt.max_passes = 0;
  placer.run(lb.pl, opt);
  for (CellId c = 0; c < lb.bench->netlist.num_cells(); ++c) {
    EXPECT_DOUBLE_EQ(lb.pl[c].x, before[c].x);
  }
}

// ---------------------------------------------------------------------------
// Bitwise equivalence against the original full-rescan implementation.
//
// At the default options the detailer's accept decisions and committed
// coordinates must be indistinguishable from the historical engine, whose
// plain mode (no slice units) is reproduced here as the reference.
// ---------------------------------------------------------------------------
namespace seedref {

struct Entry {
  double lx = 0.0;
  double width = 0.0;
  CellId cell = netlist::kInvalidId;

  double hx() const { return lx + width; }
};

class Engine {
 public:
  Engine(const netlist::Netlist& nl, const netlist::Design& design,
         netlist::Placement& pl)
      : nl_(&nl), design_(&design), pl_(&pl) {
    build_rows();
  }

  void optimize(const DetailOptions& options) {
    double current = eval::hpwl(*nl_, *pl_);
    for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
      slide_pass();
      swap_pass();
      const double next = eval::hpwl(*nl_, *pl_);
      const bool converged = current - next <= 1e-4 * current;
      current = next;
      if (converged) break;
    }
  }

 private:
  void build_rows() {
    rows_.assign(design_->num_rows(), {});
    for (CellId c = 0; c < nl_->num_cells(); ++c) {
      if (nl_->cell(c).fixed) continue;
      const double w = nl_->cell_width(c);
      const std::size_t r = design_->nearest_row((*pl_)[c].y);
      rows_[r].push_back({(*pl_)[c].x - w / 2.0, w, c});
    }
    for (auto& row : rows_) {
      std::sort(row.begin(), row.end(),
                [](const Entry& a, const Entry& b) { return a.lx < b.lx; });
      std::vector<Entry> clean;
      clean.reserve(row.size());
      for (const Entry& e : row) {
        if (!clean.empty() && clean.back().hx() > e.lx + 1e-9) continue;
        clean.push_back(e);
      }
      row = std::move(clean);
    }
  }

  double nets_hpwl(const std::vector<CellId>& cells) {
    scratch_nets_.clear();
    for (CellId c : cells) {
      for (netlist::PinId p : nl_->cell(c).pins) {
        scratch_nets_.push_back(nl_->pin(p).net);
      }
    }
    std::sort(scratch_nets_.begin(), scratch_nets_.end());
    scratch_nets_.erase(
        std::unique(scratch_nets_.begin(), scratch_nets_.end()),
        scratch_nets_.end());
    double total = 0.0;
    for (netlist::NetId n : scratch_nets_) {
      total += nl_->net(n).weight * eval::net_hpwl(*nl_, n, *pl_);
    }
    return total;
  }

  double optimal_position(const std::vector<CellId>& cells,
                          const std::vector<double>& rel) {
    breakpoints_.clear();
    for (std::size_t k = 0; k < cells.size(); ++k) {
      for (netlist::PinId p : nl_->cell(cells[k]).pins) {
        const auto& pin = nl_->pin(p);
        const auto& net_pins = nl_->net(pin.net).pins;
        if (net_pins.size() < 2) continue;
        double lo = std::numeric_limits<double>::infinity(), hi = -lo;
        bool external = false;
        for (netlist::PinId q : net_pins) {
          const CellId oc = nl_->pin(q).cell;
          bool moving = false;
          for (CellId mc : cells) {
            if (oc == mc) {
              moving = true;
              break;
            }
          }
          if (moving) continue;
          const double x = nl_->pin_position(q, *pl_).x;
          lo = std::min(lo, x);
          hi = std::max(hi, x);
          external = true;
        }
        if (!external) continue;
        const double off = rel[k] + pin.offset_x;
        breakpoints_.push_back(lo - off);
        breakpoints_.push_back(hi - off);
      }
    }
    if (breakpoints_.empty()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(breakpoints_.begin(), breakpoints_.end());
    const std::size_t m = breakpoints_.size();
    return (breakpoints_[(m - 1) / 2] + breakpoints_[m / 2]) / 2.0;
  }

  bool try_shift(std::size_t r, std::size_t i, double new_lx,
                 std::vector<CellId>& moved_cells) {
    auto& row = rows_[r];
    Entry& e = row[i];
    const double lo_bound = i > 0 ? row[i - 1].hx() : design_->row(r).lx;
    const double hi_bound =
        i + 1 < row.size() ? row[i + 1].lx : design_->row(r).hx;
    new_lx = std::clamp(new_lx, lo_bound, hi_bound - e.width);
    new_lx = design_->snap_x(new_lx);
    if (new_lx < lo_bound - 1e-9 || new_lx + e.width > hi_bound + 1e-9) {
      new_lx = std::clamp(new_lx, lo_bound, hi_bound - e.width);
      const double site = design_->site_width();
      new_lx = design_->core().lx +
               std::ceil((new_lx - design_->core().lx) / site - 1e-9) * site;
      if (new_lx + e.width > hi_bound + 1e-9) return false;
    }
    const double dx = new_lx - e.lx;
    if (std::abs(dx) < 1e-12) return false;

    const double before = nets_hpwl(moved_cells);
    for (std::size_t k = 0; k < moved_cells.size(); ++k) {
      (*pl_)[moved_cells[k]].x += dx;
    }
    const double after = nets_hpwl(moved_cells);
    if (after + 1e-12 < before) {
      e.lx = new_lx;
      return true;
    }
    for (CellId c : moved_cells) (*pl_)[c].x -= dx;
    return false;
  }

  void slide_pass() {
    std::vector<CellId> one(1);
    std::vector<double> rel{0.0};
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        Entry& e = rows_[r][i];
        one[0] = e.cell;
        rel[0] = nl_->cell_width(e.cell) / 2.0;
        const double x_opt = optimal_position(one, rel);
        if (!std::isfinite(x_opt)) continue;
        try_shift(r, i, x_opt, one);
      }
    }
  }

  void swap_pass() {
    std::vector<CellId> pair(2);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      auto& row = rows_[r];
      for (std::size_t i = 0; i + 1 < row.size(); ++i) {
        Entry& a = row[i];
        Entry& b = row[i + 1];
        const double gap = b.lx - a.hx();
        const double new_b_lx = a.lx;
        const double new_a_lx = a.lx + b.width + gap;
        pair[0] = a.cell;
        pair[1] = b.cell;
        const double before = nets_hpwl(pair);
        const double old_a_lx = a.lx, old_b_lx = b.lx;
        (*pl_)[a.cell].x = new_a_lx + a.width / 2.0;
        (*pl_)[b.cell].x = new_b_lx + b.width / 2.0;
        const double after = nets_hpwl(pair);
        if (after + 1e-12 < before) {
          a.lx = new_a_lx;
          b.lx = new_b_lx;
          std::swap(row[i], row[i + 1]);
        } else {
          (*pl_)[a.cell].x = old_a_lx + a.width / 2.0;
          (*pl_)[b.cell].x = old_b_lx + b.width / 2.0;
        }
      }
    }
  }

  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  netlist::Placement* pl_;
  std::vector<std::vector<Entry>> rows_;
  std::vector<netlist::NetId> scratch_nets_;
  std::vector<double> breakpoints_;
};

void run_plain(const netlist::Netlist& nl, const netlist::Design& design,
               netlist::Placement& pl, const DetailOptions& options = {}) {
  Engine engine(nl, design, pl);
  engine.optimize(options);
}

}  // namespace seedref

/// Random scatter + Abacus legalization: the detailer's standard input.
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
  legal::AbacusLegalizer(bench.netlist, bench.design).run_all(pl);
  return pl;
}

class DetailEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(DetailEquivalence, BitwiseIdenticalToSeedImplementation) {
  dpgen::Benchmark bench = dpgen::make_benchmark(GetParam());
  const Placement start = legalized_scatter(bench, 42);

  Placement pl_ref = start;
  seedref::run_plain(bench.netlist, bench.design, pl_ref);

  Placement pl_new = start;
  DetailedPlacer placer(bench.netlist, bench.design);
  const DetailStats stats = placer.run(pl_new);

  for (CellId c = 0; c < bench.netlist.num_cells(); ++c) {
    ASSERT_EQ(pl_new[c].x, pl_ref[c].x) << "cell " << c;
    ASSERT_EQ(pl_new[c].y, pl_ref[c].y) << "cell " << c;
  }
  EXPECT_EQ(stats.hpwl_after, eval::hpwl(bench.netlist, pl_ref));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, DetailEquivalence,
                         ::testing::ValuesIn(dpgen::standard_benchmarks()));

// The move guard sees exactly the moved cells' nets, in ascending order,
// with before/after equal to a fresh eval::net_hpwl on the placement
// without and with the move.
TEST(Detail, MoveGuardSeesMovedCellsNets) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_alu32");
  const netlist::Netlist& nl = bench.netlist;
  Placement pl = legalized_scatter(bench, 44);
  Placement before = pl;
  std::size_t calls = 0;
  DetailOptions opt;
  opt.move_guard = [&](std::span<const eval::NetChange> nets) {
    ++calls;
    // The placement holds the move; `before` holds the last accepted
    // placement, so the moved cells are the ones that differ.
    std::vector<netlist::NetId> expect;
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      if (pl[c].x == before[c].x && pl[c].y == before[c].y) continue;
      for (netlist::PinId p : nl.cell(c).pins) {
        expect.push_back(nl.pin(p).net);
      }
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    std::vector<netlist::NetId> seen;
    for (const eval::NetChange& nc : nets) {
      seen.push_back(nc.net);
      EXPECT_EQ(nc.before, eval::net_hpwl(nl, nc.net, before));
      EXPECT_EQ(nc.after, eval::net_hpwl(nl, nc.net, pl));
    }
    EXPECT_EQ(seen, expect);
    before = pl;  // every move is allowed
    return true;
  };
  DetailedPlacer placer(nl, bench.design);
  const DetailStats stats = placer.run(pl, opt);
  const Profile& p = stats.profile;
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(calls, p.slide.accepted + p.swap.accepted);
  EXPECT_EQ(p.guard_vetoes, 0u);
}

TEST(Detail, VetoingGuardLeavesPlacementUnchanged) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_alu32");
  const Placement start = legalized_scatter(bench, 45);
  DetailOptions opt;
  opt.move_guard = [](std::span<const eval::NetChange>) { return false; };
  DetailedPlacer placer(bench.netlist, bench.design);
  Placement pl = start;
  const DetailStats stats = placer.run(pl, opt);
  const Profile& p = stats.profile;
  EXPECT_GT(p.guard_vetoes, 0u);
  EXPECT_EQ(p.slide.accepted + p.swap.accepted, 0u);
  EXPECT_EQ(stats.hpwl_after, stats.hpwl_before);
  for (CellId c = 0; c < bench.netlist.num_cells(); ++c) {
    ASSERT_EQ(pl[c].x, start[c].x) << "cell " << c;
    ASSERT_EQ(pl[c].y, start[c].y) << "cell " << c;
  }
}

TEST(Detail, ProfileCountsAreConsistent) {
  LegalBench lb(6);
  DetailedPlacer placer(lb.bench->netlist, lb.bench->design);
  const DetailStats stats = placer.run(lb.pl);
  const Profile& p = stats.profile;
  EXPECT_LE(p.slide.accepted, p.slide.candidates);
  EXPECT_LE(p.swap.accepted, p.swap.candidates);
  // Every executed pass runs each pass kind once, and every candidate
  // scores at least one net.
  EXPECT_EQ(p.swap.passes, p.slide.passes);
  EXPECT_GE(p.rescans, p.slide.candidates + p.swap.candidates);
  EXPECT_FALSE(p.to_string().empty());
}

}  // namespace
}  // namespace dp::detail
