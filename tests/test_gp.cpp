#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/alignment.hpp"
#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "gp/global_placer.hpp"
#include "gp/quadratic.hpp"
#include "util/prng.hpp"

namespace dp::gp {
namespace {

using netlist::CellId;
using netlist::Placement;

struct SmallBench {
  SmallBench() {
    dpgen::Generator gen("t", 21);
    gen.add_control_block("ctl", 40);
    auto a = gen.input_bus("a", 8);
    auto b = gen.input_bus("b", 8);
    auto s = gen.add_pipelined_adder("add", a, b, 2);
    gen.output_bus("s", s);
    bench.emplace(gen.finish());
  }
  std::optional<dpgen::Benchmark> bench;
};

TEST(VarMap, FreeModeOneVarPerMovable) {
  SmallBench sb;
  const VarMap vars(sb.bench->netlist);
  EXPECT_EQ(vars.num_vars(), sb.bench->netlist.num_movable());
  for (const CellId c : vars.movable_cells()) {
    EXPECT_FALSE(sb.bench->netlist.cell(c).fixed);
    EXPECT_EQ(vars.cell(vars.var(c)), c);
  }
}

TEST(VarMap, ScatterGatherRoundTrip) {
  SmallBench sb;
  const VarMap vars(sb.bench->netlist);
  Placement pl = sb.bench->placement;
  const auto v = vars.gather(pl);
  Placement pl2(pl.size());
  vars.scatter(v, pl2);
  for (const CellId c : vars.movable_cells()) {
    EXPECT_DOUBLE_EQ(pl2[c].x, pl[c].x);
    EXPECT_DOUBLE_EQ(pl2[c].y, pl[c].y);
  }
}

TEST(Quadratic, PullsCellsIntoCore) {
  SmallBench sb;
  const auto& nl = sb.bench->netlist;
  const auto& design = sb.bench->design;
  VarMap vars(nl);
  Placement pl = sb.bench->placement;
  quadratic_initial_placement(nl, design, vars, pl);
  const geom::Rect& core = design.core();
  for (const CellId c : vars.movable_cells()) {
    EXPECT_GE(pl[c].x, core.lx);
    EXPECT_LE(pl[c].x, core.hx);
    EXPECT_GE(pl[c].y, core.ly);
    EXPECT_LE(pl[c].y, core.hy);
  }
}

TEST(Quadratic, ImprovesHpwlFromRandomStart) {
  SmallBench sb;
  const auto& nl = sb.bench->netlist;
  VarMap vars(nl);
  Placement pl = sb.bench->placement;
  util::Rng rng(5);
  const geom::Rect& core = sb.bench->design.core();
  for (const CellId c : vars.movable_cells()) {
    pl[c] = {rng.uniform(core.lx, core.hx), rng.uniform(core.ly, core.hy)};
  }
  const double before = eval::hpwl(nl, pl);
  quadratic_initial_placement(nl, sb.bench->design, vars, pl);
  EXPECT_LT(eval::hpwl(nl, pl), before);
}

// Every value() call spreads every cell, also at the positions of the
// call before: two calls at one placement visit the same bins and return
// the same value.
TEST(DensityPenalty, EveryValueCallSpreadsTheCells) {
  SmallBench sb;
  const auto& nl = sb.bench->netlist;
  const auto& design = sb.bench->design;
  const VarMap vars(nl);
  Placement pl = sb.bench->placement;
  quadratic_initial_placement(nl, design, vars, pl);
  DensityPenalty density(nl, design);
  density.preload_obstacles(pl, vars);
  const double first = density.value(pl, vars);
  const std::uint64_t bins = density.bins_visited();
  const std::uint64_t bells = density.bells_evaluated();
  EXPECT_GT(bins, 0u);
  const double again = density.value(pl, vars);
  EXPECT_EQ(density.bins_visited(), bins);
  EXPECT_EQ(density.bells_evaluated(), bells);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again),
            std::bit_cast<std::uint64_t>(first));
}

// ---- The ObjectiveTerm contract -------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The entries of `a` and `b` whose bits differ.
std::size_t mismatches(std::span<const double> a, std::span<const double> b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) n += bits(a[i]) != bits(b[i]);
  return n;
}

/// Checks, at two placements `a` and `b`, what the composite objective
/// relies on from every term: eval() is value() then gradient(..., 1) bit
/// for bit; gradient(gx, gy, s) adds exactly s times the gradient; and
/// after value(a), value(b), gradient() is b's gradient.
void expect_term_contract(const ObjectiveTerm& term, const VarMap& vars,
                          const Placement& a, const Placement& b) {
  const std::size_t n = vars.num_vars();
  std::vector<double> base(n);
  util::Rng rng(11);
  for (double& g : base) g = rng.uniform(-1.0, 1.0);

  // b's value and gradient, added onto zero.
  const double fb = term.value(b, vars);
  std::vector<double> gx(n, 0.0), gy(n, 0.0);
  term.gradient(gx, gy, 1.0);

  std::vector<double> ex = base, ey = base;
  EXPECT_EQ(bits(term.eval(b, vars, ex, ey)), bits(fb));
  std::vector<double> sx = base, sy = base;
  EXPECT_EQ(bits(term.value(b, vars)), bits(fb));
  term.gradient(sx, sy, 1.0);
  EXPECT_EQ(mismatches(ex, sx) + mismatches(ey, sy), 0u);

  for (const double s : {0.25, 3.0}) {
    SCOPED_TRACE("scale=" + std::to_string(s));
    std::vector<double> tx = base, ty = base, want_x(n), want_y(n);
    term.gradient(tx, ty, s);
    for (std::size_t v = 0; v < n; ++v) {
      want_x[v] = base[v] + s * gx[v];
      want_y[v] = base[v] + s * gy[v];
    }
    EXPECT_EQ(mismatches(tx, want_x) + mismatches(ty, want_y), 0u);
  }

  // a's gradient differs from b's, so the last check can fail.
  term.value(a, vars);
  std::vector<double> ax(n, 0.0), ay(n, 0.0);
  term.gradient(ax, ay, 1.0);
  EXPECT_GT(mismatches(ax, gx) + mismatches(ay, gy), 0u);
  EXPECT_EQ(bits(term.value(b, vars)), bits(fb));
  std::vector<double> lx(n, 0.0), ly(n, 0.0);
  term.gradient(lx, ly, 1.0);
  EXPECT_EQ(mismatches(lx, gx) + mismatches(ly, gy), 0u);
}

/// The quadratic placement of SmallBench (`a`) and a jittered copy (`b`).
struct TwoPlacements {
  explicit TwoPlacements(const SmallBench& sb) : vars(sb.bench->netlist) {
    a = sb.bench->placement;
    quadratic_initial_placement(sb.bench->netlist, sb.bench->design, vars,
                                a);
    b = a;
    util::Rng rng(9);
    for (const CellId c : vars.movable_cells()) {
      b[c].x += rng.uniform(-2.0, 2.0);
      b[c].y += rng.uniform(-2.0, 2.0);
    }
  }
  VarMap vars;
  Placement a, b;
};

TEST(ObjectiveTerm, WirelengthKeepsTheContract) {
  SmallBench sb;
  const TwoPlacements p(sb);
  const SmoothWirelength wl(sb.bench->netlist, WirelengthModel::kWa, 1.5);
  expect_term_contract(wl, p.vars, p.a, p.b);
}

TEST(ObjectiveTerm, DensityWithAreaScaleKeepsTheContract) {
  SmallBench sb;
  const TwoPlacements p(sb);
  const auto& nl = sb.bench->netlist;
  DensityPenalty density(nl, sb.bench->design);
  std::vector<double> scale(nl.num_cells(), 1.0);
  for (CellId c = 0; c < nl.num_cells(); c += 2) scale[c] = 0.6;
  density.set_area_scale(scale);
  density.preload_obstacles(p.a, p.vars);
  expect_term_contract(density, p.vars, p.a, p.b);
}

TEST(ObjectiveTerm, AlignmentKeepsTheContract) {
  SmallBench sb;
  const TwoPlacements p(sb);
  ASSERT_FALSE(sb.bench->truth.groups.empty());
  const core::AlignmentPenalty alignment(sb.bench->truth);
  expect_term_contract(alignment, p.vars, p.a, p.b);
}

TEST(GlobalPlacer, ReducesOverflowBelowStop) {
  SmallBench sb;
  GpOptions opt;
  opt.stop_overflow = 0.15;
  opt.max_outer = 30;
  GlobalPlacer placer(sb.bench->netlist, sb.bench->design, opt);
  Placement pl = sb.bench->placement;
  const GpResult res = placer.place(pl);
  EXPECT_LE(res.final_overflow, 0.25);
  EXPECT_FALSE(res.trace.empty());
  EXPECT_GT(res.total_cg_iterations, 0u);
}

TEST(GlobalPlacer, KeepsCellsInCore) {
  SmallBench sb;
  GlobalPlacer placer(sb.bench->netlist, sb.bench->design);
  Placement pl = sb.bench->placement;
  placer.place(pl);
  const geom::Rect& core = sb.bench->design.core();
  for (const CellId c : placer.vars().movable_cells()) {
    EXPECT_GE(pl[c].x, core.lx - 1e-9);
    EXPECT_LE(pl[c].x, core.hx + 1e-9);
  }
}

TEST(GlobalPlacer, Deterministic) {
  SmallBench sb;
  Placement p1 = sb.bench->placement, p2 = sb.bench->placement;
  GlobalPlacer(sb.bench->netlist, sb.bench->design).place(p1);
  GlobalPlacer(sb.bench->netlist, sb.bench->design).place(p2);
  EXPECT_DOUBLE_EQ(eval::hpwl(sb.bench->netlist, p1),
                   eval::hpwl(sb.bench->netlist, p2));
}

TEST(GlobalPlacer, ExtraTermPullsThePlacement) {
  SmallBench sb;
  // A pull-everything-to-origin term; weighted up to 32 times the
  // wirelength force it must visibly drag the placement toward the corner.
  class Pull final : public ObjectiveTerm {
   public:
    double value(const Placement& pl, const VarMap& vars) const override {
      double f = 0.0;
      at_.clear();
      for (const CellId c : vars.movable_cells()) {
        f += pl[c].x * pl[c].x + pl[c].y * pl[c].y;
        at_.push_back(pl[c]);
      }
      return f;
    }
    void gradient(std::span<double> gx, std::span<double> gy,
                  double scale) const override {
      for (std::size_t v = 0; v < at_.size(); ++v) {
        gx[v] += scale * 2 * at_[v].x;
        gy[v] += scale * 2 * at_[v].y;
      }
    }

   private:
    mutable std::vector<geom::Point> at_;  ///< positions at the last value()
  };
  Pull pull;
  GpOptions opt;
  opt.max_outer = 6;
  GlobalPlacer placer(sb.bench->netlist, sb.bench->design, opt);
  placer.add_term({&pull, 1.0, "pull"});
  Placement pl = sb.bench->placement;
  const GpResult res = placer.place(pl);
  ASSERT_EQ(res.profile.extras.size(), 1u);
  EXPECT_EQ(res.profile.extras[0].first, "pull");
  EXPECT_GT(res.profile.extras[0].second.calls, 0u);
  // Center of gravity pulled toward the origin corner.
  double cx = 0.0;
  std::size_t n = 0;
  for (const CellId c : placer.vars().movable_cells()) {
    cx += pl[c].x;
    ++n;
  }
  cx /= static_cast<double>(n);
  EXPECT_LT(cx, sb.bench->design.core().center().x);
}

TEST(GlobalPlacer, OuterHookRescalesDensityForTheNextOuter) {
  SmallBench sb;
  const auto& nl = sb.bench->netlist;
  const auto& design = sb.bench->design;
  GpOptions opt;
  opt.stop_overflow = 0.0;
  opt.max_outer = 4;
  constexpr std::size_t kAt = 2;
  const std::vector<double> doubled(nl.num_cells(), 2.0);
  struct Run {
    std::vector<GpTracePoint> trace;
    Placement after_at;  ///< the placement outer kAt ended with
  };
  auto run = [&](bool rescale) {
    GlobalPlacer placer(nl, design, opt);
    std::vector<std::size_t> seen;
    Run r;
    placer.set_outer_hook([&](const TermContext& ctx, const Placement& pl,
                              SmoothWirelength&, DensityPenalty& density) {
      seen.push_back(ctx.outer);
      if (rescale && ctx.outer == kAt) density.set_area_scale(doubled);
      if (ctx.outer == kAt + 1) r.after_at = pl;
    });
    Placement pl = sb.bench->placement;
    r.trace = placer.place(pl).trace;
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
    return r;
  };
  const Run plain = run(false);
  const Run rescaled = run(true);
  ASSERT_EQ(plain.trace.size(), 4u);
  ASSERT_EQ(rescaled.trace.size(), 4u);
  // The hook changes nothing before it rescales, and every outer from the
  // rescaled one on.
  for (std::size_t k = 0; k < 4; ++k) {
    const bool same =
        std::bit_cast<std::uint64_t>(plain.trace[k].hpwl) ==
            std::bit_cast<std::uint64_t>(rescaled.trace[k].hpwl) &&
        std::bit_cast<std::uint64_t>(plain.trace[k].overflow) ==
            std::bit_cast<std::uint64_t>(rescaled.trace[k].overflow);
    EXPECT_EQ(same, k < kAt) << "outer " << k;
  }
  // Outer kAt's overflow is measured with the doubled areas.
  const VarMap vars(nl);
  DensityPenalty scaled_density(nl, design);
  scaled_density.preload_obstacles(sb.bench->placement, vars);
  scaled_density.set_area_scale(doubled);
  DensityPenalty unit_density(nl, design);
  unit_density.preload_obstacles(sb.bench->placement, vars);
  EXPECT_EQ(scaled_density.overflow(rescaled.after_at, vars, 1.0),
            rescaled.trace[kAt].overflow);
  EXPECT_NE(unit_density.overflow(rescaled.after_at, vars, 1.0),
            rescaled.trace[kAt].overflow);
}

TEST(GlobalPlacer, StopReasons) {
  SmallBench sb;
  GpOptions opt;
  opt.stop_overflow = 0.0;
  opt.max_outer = 3;
  GlobalPlacer capped(sb.bench->netlist, sb.bench->design, opt);
  Placement pl = sb.bench->placement;
  const GpResult cap = capped.place(pl);
  EXPECT_EQ(cap.stop_reason, GpStop::kOuterCap);
  EXPECT_STREQ(to_string(cap.stop_reason), "outer_cap");

  GlobalPlacer full(sb.bench->netlist, sb.bench->design);
  pl = sb.bench->placement;
  const GpResult done = full.place(pl);
  EXPECT_EQ(done.stop_reason, GpStop::kOverflowReached);
  EXPECT_LE(done.final_overflow, GpOptions{}.stop_overflow);
}

// A run handed an earlier run's record starts from the placement as given
// (no quadratic start) and continues the record: outers numbered on, work
// added, the earlier outers kept as they were.
TEST(GlobalPlacer, ContinuedRunExtendsTheRecord) {
  SmallBench sb;
  const auto& nl = sb.bench->netlist;
  GpOptions opt;
  opt.stop_overflow = 0.0;
  opt.max_outer = 3;
  Placement pl = sb.bench->placement;
  const GpResult head = GlobalPlacer(nl, sb.bench->design, opt).place(pl);
  ASSERT_EQ(head.trace.size(), 3u);
  const Placement handed = pl;

  GlobalPlacer next(nl, sb.bench->design, opt);
  bool saw_outer0 = false;
  next.set_outer_hook([&](const TermContext& ctx, const Placement& cur,
                          SmoothWirelength&, DensityPenalty&) {
    if (ctx.outer != 0) return;
    saw_outer0 = true;
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cur[c].x),
                std::bit_cast<std::uint64_t>(handed[c].x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cur[c].y),
                std::bit_cast<std::uint64_t>(handed[c].y));
    }
  });
  const GpResult res = next.place(pl, head);
  EXPECT_TRUE(saw_outer0);

  ASSERT_EQ(res.trace.size(), 6u);
  std::size_t iterations = 0, evaluations = 0;
  for (std::size_t k = 0; k < res.trace.size(); ++k) {
    EXPECT_EQ(res.trace[k].outer, k);
    iterations += res.trace[k].cg_iterations;
    evaluations += res.trace[k].evaluations;
  }
  EXPECT_EQ(iterations, res.total_cg_iterations);
  EXPECT_EQ(evaluations, res.total_evaluations);

  for (std::size_t k = 0; k < head.trace.size(); ++k) {
    const GpTracePoint& a = head.trace[k];
    const GpTracePoint& b = res.trace[k];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.hpwl),
              std::bit_cast<std::uint64_t>(b.hpwl));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.overflow),
              std::bit_cast<std::uint64_t>(b.overflow));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lambda),
              std::bit_cast<std::uint64_t>(b.lambda));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.gamma),
              std::bit_cast<std::uint64_t>(b.gamma));
    EXPECT_EQ(a.cg_iterations, b.cg_iterations);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.inner_stop, b.inner_stop);
  }
  EXPECT_EQ(res.final_overflow, res.trace.back().overflow);
  EXPECT_EQ(res.stop_reason, GpStop::kOuterCap);
}

// The trace carries each outer's inner work: it sums to the run's totals,
// and an outer that starts above the spread point runs at most
// kSpreadInnerIters CG iterations. make_scaled(2000) starts piled up far
// above it, so some spreading outer runs into that cap.
TEST(GlobalPlacer, SpreadingOutersRunCappedInnerSolves) {
  const dpgen::Benchmark b = dpgen::make_scaled(2000);
  GlobalPlacer placer(b.netlist, b.design);
  std::vector<double> start_overflow;
  placer.set_outer_hook([&](const TermContext& ctx, const Placement&,
                            SmoothWirelength&, DensityPenalty&) {
    start_overflow.push_back(ctx.overflow);
  });
  Placement pl = b.placement;
  const GpResult res = placer.place(pl);
  ASSERT_EQ(start_overflow.size(), res.trace.size());

  std::size_t iterations = 0, evaluations = 0, capped = 0;
  for (std::size_t k = 0; k < res.trace.size(); ++k) {
    const GpTracePoint& p = res.trace[k];
    iterations += p.cg_iterations;
    evaluations += p.evaluations;
    if (start_overflow[k] <= kSpreadOverflow) continue;
    EXPECT_LE(p.cg_iterations, kSpreadInnerIters) << "outer " << k;
    if (p.inner_stop == CgStop::kIterationCap) ++capped;
  }
  EXPECT_EQ(iterations, res.total_cg_iterations);
  EXPECT_EQ(evaluations, res.total_evaluations);
  EXPECT_GT(capped, 0u);
}

TEST(GlobalPlacer, TraceIsMonotoneInLambda) {
  SmallBench sb;
  GlobalPlacer placer(sb.bench->netlist, sb.bench->design);
  Placement pl = sb.bench->placement;
  const GpResult res = placer.place(pl);
  for (std::size_t i = 1; i < res.trace.size(); ++i) {
    EXPECT_GE(res.trace[i].lambda, res.trace[i - 1].lambda);
    EXPECT_LE(res.trace[i].gamma, res.trace[i - 1].gamma + 1e-12);
  }
}

// The initial density weight at a scale where it pays: lambda starts at
// kInitFactor times the wirelength/density gradient ratio of the quadratic
// start, and a plain GP on make_scaled(2000) reaches its stop overflow
// within kMaxOuters outers (11 measured; 16 at the old factor of 0.1).
TEST(GlobalPlacer, InitialDensityWeightSpreadsScaled2k) {
  constexpr double kInitFactor = 2.0;
  constexpr std::size_t kMaxOuters = 12;
  const dpgen::Benchmark b = dpgen::make_scaled(2000);
  const auto& nl = b.netlist;
  GlobalPlacer placer(nl, b.design);

  Placement start = b.placement;
  quadratic_initial_placement(nl, b.design, placer.vars(), start);
  DensityPenalty density(nl, b.design);
  density.preload_obstacles(start, placer.vars());
  const auto [wl_norm, den_norm] = placer.probe_norms(density, start);
  ASSERT_GT(den_norm, 0.0);

  Placement pl = b.placement;
  const GpResult res = placer.place(pl);
  ASSERT_FALSE(res.trace.empty());
  EXPECT_EQ(res.trace.front().lambda, kInitFactor * wl_norm / den_norm);
  EXPECT_EQ(res.stop_reason, GpStop::kOverflowReached);
  EXPECT_LE(res.trace.size(), kMaxOuters);
}

}  // namespace
}  // namespace dp::gp
