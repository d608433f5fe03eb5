#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

// ---- 0-ulp reference -------------------------------------------------------
//
// A copy of quadratic_initial_placement before its sweeps paired the x and
// y divisions: per-net sum records indexed by NetId, read through each
// movable cell's netlist pins. The kernel must reproduce its start
// positions bit for bit.
namespace reference {

void quadratic_initial_placement(const netlist::Netlist& nl,
                                 const netlist::Design& design,
                                 const VarMap& vars,
                                 const netlist::FlatNets& nets,
                                 Placement& pl) {
  const geom::Rect& core = design.core();
  struct NetSum {
    double x = 0.0, y = 0.0, deg = 0.0, weight = 0.0;
  };
  std::vector<NetSum> sums(nl.num_nets());
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    sums[n].deg = static_cast<double>(nl.net_pins(n).size());
    sums[n].weight = nl.net(n).weight;
  }
  for (std::size_t sweep = 0; sweep < 150; ++sweep) {
    for (std::size_t kn = 0; kn < nets.num_nets(); ++kn) {
      double sx = 0.0, sy = 0.0;
      for (std::uint32_t s = nets.net_first[kn]; s < nets.net_first[kn + 1];
           ++s) {
        const CellId c = nets.pin_cell[s];
        sx += pl[c].x + nets.pin_dx[s];
        sy += pl[c].y + nets.pin_dy[s];
      }
      sums[nets.net_id[kn]].x = sx;
      sums[nets.net_id[kn]].y = sy;
    }
    for (const CellId c : vars.movable_cells()) {
      double acc_x = 0.0, acc_y = 0.0, acc_w = 0.0;
      for (netlist::PinId p : nl.cell_pins(c)) {
        const NetSum& net = sums[nl.pin(p).net];
        if (net.deg < 2.0) continue;
        const geom::Point own = nl.pin_position(p, pl);
        const double w = net.weight;
        acc_x += w * (net.x - own.x) / (net.deg - 1.0);
        acc_y += w * (net.y - own.y) / (net.deg - 1.0);
        acc_w += w;
      }
      if (acc_w <= 0.0) continue;
      pl[c].x = std::clamp(acc_x / acc_w, core.lx, core.hx);
      pl[c].y = std::clamp(acc_y / acc_w, core.ly, core.hy);
    }
  }
  util::Rng rng(42);
  const double j = 0.25 * design.row_height();
  for (const CellId c : vars.movable_cells()) {
    pl[c].x = std::clamp(pl[c].x + rng.uniform(-j, j), core.lx, core.hx);
    pl[c].y = std::clamp(pl[c].y + rng.uniform(-j, j), core.ly, core.hy);
  }
}

}  // namespace reference

/// Runs the reference and the kernel from `start` and asserts every
/// cell's position equal to the last bit.
void expect_quadratic_bitwise(const netlist::Netlist& nl,
                              const netlist::Design& design,
                              const Placement& start) {
  const VarMap vars(nl);
  const netlist::FlatNets nets(nl, 2);
  Placement want = start, got = start;
  reference::quadratic_initial_placement(nl, design, vars, nets, want);
  quadratic_initial_placement(nl, design, vars, nets, got);
  std::size_t mismatches = 0;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    mismatches += std::bit_cast<std::uint64_t>(got[c].x) !=
                      std::bit_cast<std::uint64_t>(want[c].x) ||
                  std::bit_cast<std::uint64_t>(got[c].y) !=
                      std::bit_cast<std::uint64_t>(want[c].y);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(QuadraticBitwise, Scaled4k) {
  const dpgen::Benchmark b = dpgen::make_scaled(4000, 11);
  expect_quadratic_bitwise(b.netlist, b.design, b.placement);
}

// 1-pin nets (skipped), net weights other than 1, a cell on two pins of
// one net, fixed pads, and a movable cell whose nets all have fewer than
// two pins (it keeps its position until the jitter).
TEST(QuadraticBitwise, OnePinNetsWeightsAndAnUnconnectedCell) {
  netlist::NetlistBuilder builder(netlist::standard_library());
  std::vector<CellId> c;
  for (int i = 0; i < 6; ++i) {
    c.push_back(builder.add_cell(std::string("c").append(std::to_string(i)),
                                 netlist::CellFunc::kNand2));
  }
  const CellId pad_a = builder.add_cell("pa", netlist::CellFunc::kInv, true);
  const CellId pad_b = builder.add_cell("pb", netlist::CellFunc::kInv, true);
  const auto net = [&](const char* name, double weight,
                       std::vector<std::pair<CellId, const char*>> pins) {
    const netlist::NetId n = builder.add_net(name, weight);
    for (const auto& [cell, port] : pins) builder.connect(cell, port, n);
  };
  net("in", 2.5, {{pad_a, "Y"}, {c[0], "A"}, {c[1], "A"}});
  net("mid", 0.75, {{c[0], "Y"}, {c[1], "B"}, {c[2], "A"}, {c[3], "A"}});
  net("self", 1.0, {{c[2], "Y"}, {c[2], "B"}, {c[3], "B"}});
  net("out", 3.0, {{c[3], "Y"}, {pad_b, "A"}});
  net("dangle", 4.0, {{c[1], "Y"}});
  // c4 and c5: only 1-pin nets.
  net("lone_a", 1.0, {{c[4], "A"}});
  net("lone_y", 2.0, {{c[4], "Y"}});
  net("lone_b", 1.0, {{c[5], "B"}});
  const netlist::Netlist nl = builder.take();
  const netlist::Design design(geom::Rect{0, 0, 20, 8}, 1.0, 0.25);
  Placement start(nl.num_cells());
  util::Rng rng(13);
  for (auto& p : start) p = {rng.uniform(0.0, 20.0), rng.uniform(0.0, 8.0)};
  start[pad_a] = {0.0, 4.0};
  start[pad_b] = {20.0, 1.0};
  expect_quadratic_bitwise(nl, design, start);
}

// A second full eval() at the positions of the call before returns the
// same value and the same work counters.
TEST(DensityPenalty, RepeatedEvalKeepsValueAndCounters) {
  SmallBench sb;
  const auto& nl = sb.bench->netlist;
  const auto& design = sb.bench->design;
  const VarMap vars(nl);
  Placement pl = sb.bench->placement;
  quadratic_initial_placement(nl, design, vars, pl);
  DensityPenalty density(nl, design);
  density.preload_obstacles(pl, vars);
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  const double first = density.eval(pl, vars, gx, gy);
  const std::uint64_t bins = density.bins_visited();
  const std::uint64_t bells = density.bells_evaluated();
  EXPECT_GT(bins, 0u);
  const double again = density.eval(pl, vars, gx, gy);
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
/// relies on from every term that `make()` returns fresh: eval(..., s)
/// adds exactly s times the gradient for s = 0.25 and 3, and the value and
/// gradient at `b` do not depend on what the term evaluated before: after
/// `a`, they are a fresh term's bits.
template <class Make>
void expect_term_contract(const Make& make, const VarMap& vars,
                          const Placement& a, const Placement& b) {
  const std::size_t n = vars.num_vars();
  std::vector<double> base(n);
  util::Rng rng(11);
  for (double& g : base) g = rng.uniform(-1.0, 1.0);

  // A fresh term's value and gradient at b, added onto zero.
  std::vector<double> gx(n, 0.0), gy(n, 0.0);
  const double fb = make()->eval(b, vars, gx, gy);

  // a's gradient differs from b's, so the history check can fail.
  const auto term = make();
  std::vector<double> ax(n, 0.0), ay(n, 0.0);
  term->eval(a, vars, ax, ay);
  EXPECT_GT(mismatches(ax, gx) + mismatches(ay, gy), 0u);
  std::vector<double> lx(n, 0.0), ly(n, 0.0);
  EXPECT_EQ(bits(term->eval(b, vars, lx, ly)), bits(fb));
  EXPECT_EQ(mismatches(lx, gx) + mismatches(ly, gy), 0u);

  // Scaled, on a fresh term and on one that evaluated b before.
  for (const double s : {0.25, 3.0}) {
    SCOPED_TRACE("scale=" + std::to_string(s));
    std::vector<double> want_x(n), want_y(n);
    for (std::size_t v = 0; v < n; ++v) {
      want_x[v] = base[v] + s * gx[v];
      want_y[v] = base[v] + s * gy[v];
    }
    std::vector<double> fx = base, fy = base, tx = base, ty = base;
    EXPECT_EQ(bits(make()->eval(b, vars, fx, fy, s)), bits(fb));
    EXPECT_EQ(bits(term->eval(b, vars, tx, ty, s)), bits(fb));
    EXPECT_EQ(mismatches(fx, want_x) + mismatches(fy, want_y), 0u);
    EXPECT_EQ(mismatches(tx, want_x) + mismatches(ty, want_y), 0u);
  }
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
  expect_term_contract(
      [&] {
        return std::make_unique<SmoothWirelength>(
            sb.bench->netlist, WirelengthModel::kWa, 1.5);
      },
      p.vars, p.a, p.b);
}

TEST(ObjectiveTerm, DensityWithAreaScaleKeepsTheContract) {
  SmallBench sb;
  const TwoPlacements p(sb);
  const auto& nl = sb.bench->netlist;
  std::vector<double> scale(nl.num_cells(), 1.0);
  for (CellId c = 0; c < nl.num_cells(); c += 2) scale[c] = 0.6;
  expect_term_contract(
      [&] {
        auto density = std::make_unique<DensityPenalty>(nl, sb.bench->design);
        density->set_area_scale(scale);
        density->preload_obstacles(p.a, p.vars);
        return density;
      },
      p.vars, p.a, p.b);
}

TEST(ObjectiveTerm, AlignmentKeepsTheContract) {
  SmallBench sb;
  const TwoPlacements p(sb);
  ASSERT_FALSE(sb.bench->truth.groups.empty());
  expect_term_contract(
      [&] { return std::make_unique<core::AlignmentPenalty>(sb.bench->truth); },
      p.vars, p.a, p.b);
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
    double eval(const Placement& pl, const VarMap& vars, std::span<double> gx,
                std::span<double> gy, double scale = 1.0) const override {
      double f = 0.0;
      for (std::size_t v = 0; v < vars.num_vars(); ++v) {
        const geom::Point& at = pl[vars.cell(v)];
        f += at.x * at.x + at.y * at.y;
        gx[v] += scale * 2 * at.x;
        gy[v] += scale * 2 * at.y;
      }
      return f;
    }
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

// Each outer's trace HPWL, summed over the wirelength term's flat pin
// arrays, is eval::hpwl of the placement it ended with, bit for bit: with
// netlist weights other than 1 and net weight scales set by the outer
// hook, which the trace must not read. The profile times the solver and
// the per-outer scans once per outer and the quadratic start once.
TEST(GlobalPlacer, TraceHpwlIsEvalHpwlWithScaledNetWeights) {
  SmallBench sb;
  netlist::Netlist nl = sb.bench->netlist;
  netlist::NetlistSurgeon surgeon(nl);
  util::Rng rng(5);
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    surgeon.net(n).weight = rng.uniform(0.25, 3.0);
  }
  std::vector<double> scale(nl.num_nets());
  for (double& x : scale) x = rng.uniform(0.5, 4.0);
  GpOptions opt;
  opt.stop_overflow = 0.0;
  opt.max_outer = 5;
  GlobalPlacer placer(nl, sb.bench->design, opt);
  std::vector<Placement> ended;  // the placement each outer ended with
  placer.set_outer_hook([&](const TermContext& ctx, const Placement& pl,
                            SmoothWirelength& wl, DensityPenalty&) {
    if (ctx.outer > 0) ended.push_back(pl);
    wl.set_net_weight_scale(scale);
  });
  Placement pl = sb.bench->placement;
  const GpResult res = placer.place(pl);
  ended.push_back(pl);
  ASSERT_EQ(res.trace.size(), 5u);
  ASSERT_EQ(ended.size(), res.trace.size());
  for (std::size_t k = 0; k < res.trace.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.trace[k].hpwl),
              std::bit_cast<std::uint64_t>(eval::hpwl(nl, ended[k])))
        << "outer " << k;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(res.final_hpwl),
            std::bit_cast<std::uint64_t>(eval::hpwl(nl, pl)));
  EXPECT_EQ(res.profile.solver.calls, res.trace.size());
  EXPECT_EQ(res.profile.outer_scans.calls, res.trace.size() + 1);
  EXPECT_EQ(res.profile.quadratic.calls, 1u);
  EXPECT_GE(res.profile.solver.seconds, 0.0);
  EXPECT_GT(res.profile.quadratic.seconds, 0.0);
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
    iterations += res.trace[k].iterations;
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
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.inner_stop, b.inner_stop);
  }
  EXPECT_EQ(res.final_overflow, res.trace.back().overflow);
  EXPECT_EQ(res.stop_reason, GpStop::kOuterCap);
}

// The trace carries each outer's inner work: it sums to the run's totals,
// and an outer that starts above the spread point runs at most
// kSpreadInnerIters solver iterations. make_scaled(2000) starts piled up far
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
    iterations += p.iterations;
    evaluations += p.evaluations;
    if (start_overflow[k] <= kSpreadOverflow) continue;
    EXPECT_LE(p.iterations, kSpreadInnerIters) << "outer " << k;
    if (p.inner_stop == NesterovStop::kIterationCap) ++capped;
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
