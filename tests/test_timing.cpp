// Timing subsystem: graph construction (pin-level arcs, levelization,
// loop detection), analyzer correctness (arrival/required/slack
// identities), and a report pinned to recorded bits.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "dpgen/benchmarks.hpp"
#include "netlist/library.hpp"
#include "timing/timing_analyzer.hpp"
#include "timing/timing_graph.hpp"

namespace dp::timing {
namespace {

using netlist::CellFunc;
using netlist::CellId;
using netlist::NetId;
using netlist::PinDir;
using netlist::PinId;
using netlist::Placement;

constexpr double kInf = std::numeric_limits<double>::infinity();

const dpgen::Benchmark& alu32() {
  static const dpgen::Benchmark b = dpgen::make_benchmark("dp_alu32");
  return b;
}

/// pad -> inv -> dff -> pad chain with unit cell spacing.
struct Chain {
  Chain() {
    netlist::NetlistBuilder b(netlist::standard_library());
    pi = b.add_cell("pi", CellFunc::kPad, true);
    inv = b.add_cell("inv", CellFunc::kInv);
    ff = b.add_cell("ff", CellFunc::kDff);
    po = b.add_cell("po", CellFunc::kPad, true);
    n1 = b.add_net("n1");
    n2 = b.add_net("n2");
    n3 = b.add_net("n3");
    pi_out = b.connect_dir(pi, 0, n1, PinDir::kOutput);
    inv_a = b.connect(inv, "A", n1);
    inv_y = b.connect(inv, "Y", n2);
    ff_d = b.connect(ff, "D", n2);
    ff_q = b.connect(ff, "Q", n3);
    po_in = b.connect_dir(po, 0, n3, PinDir::kInput);
    nl.emplace(b.take());
    pl.assign(4, {});
    pl[pi] = {0.0, 0.0};
    pl[inv] = {1.0, 0.0};
    pl[ff] = {2.0, 0.0};
    pl[po] = {3.0, 0.0};
  }

  CellId pi, inv, ff, po;
  NetId n1, n2, n3;
  PinId pi_out, inv_a, inv_y, ff_d, ff_q, po_in;
  std::optional<netlist::Netlist> nl;
  Placement pl;
};

// ---- graph construction ----------------------------------------------------

TEST(TimingGraph, ChainArcsAndLevels) {
  Chain c;
  const TimingGraph g(*c.nl);
  EXPECT_EQ(g.num_nodes(), c.nl->num_pins());
  // Net arcs: pi->inv.A, inv.Y->ff.D, ff.Q->po. Cell arcs: inv.A->inv.Y
  // only (DFF and pads are path boundaries).
  EXPECT_EQ(g.num_arcs(), 4u);
  EXPECT_FALSE(g.has_loops());
  EXPECT_EQ(g.order().size(), c.nl->num_pins());
  // pi.out, ff.Q at level 0; inv.A and po (via ff.Q) downstream.
  EXPECT_EQ(g.level(c.pi_out), 0u);
  EXPECT_EQ(g.level(c.ff_q), 0u);
  EXPECT_EQ(g.level(c.inv_a), 1u);
  EXPECT_EQ(g.level(c.inv_y), 2u);
  EXPECT_EQ(g.level(c.ff_d), 3u);
  EXPECT_EQ(g.level(c.po_in), 1u);
  EXPECT_EQ(g.num_levels(), 4u);
  // Endpoints: the DFF D pin and the output pad, ascending.
  ASSERT_EQ(g.endpoints().size(), 2u);
  EXPECT_EQ(g.endpoints()[0], c.ff_d);
  EXPECT_EQ(g.endpoints()[1], c.po_in);
}

TEST(TimingGraph, OrderGroupedByLevel) {
  const TimingGraph g(alu32().netlist);
  EXPECT_FALSE(g.has_loops());
  const auto order = g.order();
  ASSERT_EQ(order.size() + g.loop_pins().size(), g.num_nodes());
  // Levels ascend through the order, pin ids ascend within a level, and
  // every level below num_levels() is present.
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(g.level(order.front()), 0u);
  EXPECT_EQ(g.level(order.back()) + 1, g.num_levels());
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t prev = g.level(order[i - 1]);
    const std::size_t cur = g.level(order[i]);
    ASSERT_TRUE(cur == prev || cur == prev + 1) << "position " << i;
    if (cur == prev) {
      EXPECT_LT(order[i - 1], order[i]) << "ascending ids within a level";
    }
  }
  // Every fanin arc strictly crosses levels upward, so the order is
  // topological.
  for (const PinId p : order) {
    for (std::size_t a = g.fanin_first(p); a < g.fanin_first(p + 1); ++a) {
      EXPECT_LT(g.level(g.arc_src()[a]), g.level(p));
    }
  }
}

TEST(TimingGraph, FanoutMirrorsFanin) {
  const TimingGraph g(alu32().netlist);
  std::size_t fanout_arcs = 0;
  for (PinId p = 0; p < g.num_nodes(); ++p) {
    for (std::size_t i = g.fanout_first(p); i < g.fanout_first(p + 1); ++i) {
      const std::uint32_t a = g.fanout_arc()[i];
      EXPECT_EQ(g.arc_src()[a], p);
      EXPECT_EQ(g.fanout_dst()[i], [&] {
        // The fanin arc index must map back to the same destination:
        // locate dst by binary property fanin_first(dst) <= a < next.
        PinId dst = g.fanout_dst()[i];
        EXPECT_GE(a, g.fanin_first(dst));
        EXPECT_LT(a, g.fanin_first(dst + 1));
        return dst;
      }());
      ++fanout_arcs;
    }
  }
  EXPECT_EQ(fanout_arcs, g.num_arcs());
}

TEST(TimingGraph, CombinationalLoopDetected) {
  netlist::NetlistBuilder b(netlist::standard_library());
  const CellId c1 = b.add_cell("c1", CellFunc::kInv);
  const CellId c2 = b.add_cell("c2", CellFunc::kInv);
  const NetId na = b.add_net("na");
  const NetId nb = b.add_net("nb");
  b.connect(c1, "Y", na);
  b.connect(c2, "A", na);
  b.connect(c2, "Y", nb);
  b.connect(c1, "A", nb);
  const auto nl = b.take();
  const TimingGraph g(nl);
  EXPECT_TRUE(g.has_loops());
  EXPECT_EQ(g.loop_pins().size(), 4u);
  EXPECT_TRUE(g.order().empty());

  // The analyzer degrades gracefully: loop pins carry zero slack.
  TimingAnalyzer an(g);
  Placement pl(2, {1.0, 1.0});
  const TimingReport& r = an.analyze(pl);
  EXPECT_EQ(r.loop_pins, 4u);
  for (const PinId p : g.loop_pins()) {
    EXPECT_EQ(an.arrival()[p], 0.0);
    EXPECT_EQ(an.slack()[p], 0.0);
  }
}

// ---- analyzer correctness --------------------------------------------------

TEST(TimingAnalyzer, ChainDelaysByHand) {
  Chain c;
  const TimingGraph g(*c.nl);
  TimingAnalyzer an(g);
  const TimingReport& r = an.analyze(c.pl);

  // Pin offsets are zero-ish for these types? Compute expected from net
  // HPWL via the analyzer's own per-net delays for robustness.
  const double d1 = an.net_delay()[c.n1];
  const double d2 = an.net_delay()[c.n2];
  const double d3 = an.net_delay()[c.n3];
  EXPECT_GT(d1, 0.0);
  EXPECT_EQ(an.arrival()[c.inv_a], d1);
  EXPECT_EQ(an.arrival()[c.inv_y], d1 + kGateDelay);
  EXPECT_EQ(an.arrival()[c.ff_d], d1 + kGateDelay + d2);
  // The register output starts a fresh path.
  EXPECT_EQ(an.arrival()[c.ff_q], 0.0);
  EXPECT_EQ(an.arrival()[c.po_in], d3);

  // Auto period = worst endpoint arrival -> zero worst slack, no
  // violations.
  EXPECT_EQ(r.clock_period, d1 + kGateDelay + d2);
  EXPECT_EQ(r.wns, 0.0);
  EXPECT_EQ(r.tns, 0.0);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_EQ(r.endpoints, 2u);

  // Critical path: pi.out -> inv.A -> inv.Y -> ff.D.
  ASSERT_EQ(r.critical_path.size(), 4u);
  EXPECT_EQ(r.critical_path.front().pin, c.pi_out);
  EXPECT_EQ(r.critical_path.back().pin, c.ff_d);
  EXPECT_EQ(r.critical_path.back().arrival, r.max_arrival);

  // An explicit tight period creates violations.
  TimingOptions opt;
  opt.clock_period = 0.5;
  TimingAnalyzer tight(g, opt);
  const TimingReport& rt = tight.analyze(c.pl);
  EXPECT_LT(rt.wns, 0.0);
  EXPECT_LT(rt.tns, 0.0);
  EXPECT_GT(rt.violations, 0u);
  EXPECT_EQ(rt.clock_period, 0.5);
}

TEST(TimingAnalyzer, RandomizedSlackConsistency) {
  const auto& b = alu32();
  const TimingGraph g(b.netlist);
  TimingAnalyzer an(g);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> jitter(-3.0, 3.0);
  Placement pl = b.placement;
  for (int round = 0; round < 3; ++round) {
    for (auto& p : pl) {
      p.x += jitter(rng);
      p.y += jitter(rng);
    }
    const TimingReport& r = an.analyze(pl);
    const auto arrival = an.arrival();
    const auto required = an.required();
    const auto slack = an.slack();

    // Arrival is the exact max over fanin; slack the exact difference.
    for (const PinId p : g.order()) {
      double at = 0.0;
      for (std::size_t a = g.fanin_first(p); a < g.fanin_first(p + 1); ++a) {
        const double d = g.arc_kind()[a] == ArcKind::kCell
                             ? kGateDelay
                             : an.net_delay()[g.arc_net()[a]];
        at = std::max(at, arrival[g.arc_src()[a]] + d);
      }
      ASSERT_EQ(arrival[p], at) << "pin " << p;
      if (std::isfinite(required[p])) {
        ASSERT_EQ(slack[p], required[p] - arrival[p]) << "pin " << p;
      }
    }

    // Endpoint summary identities.
    double wns = kInf, tns = 0.0, max_arrival = 0.0;
    std::size_t violations = 0;
    for (const PinId e : g.endpoints()) {
      ASSERT_TRUE(std::isfinite(required[e]));
      ASSERT_LE(required[e], r.clock_period);
      wns = std::min(wns, slack[e]);
      max_arrival = std::max(max_arrival, arrival[e]);
      if (slack[e] < 0.0) {
        tns += slack[e];
        ++violations;
      }
    }
    EXPECT_EQ(r.wns, wns);
    EXPECT_EQ(r.tns, tns);
    EXPECT_EQ(r.violations, violations);
    EXPECT_EQ(r.max_arrival, max_arrival);
    // Auto period: the worst endpoint exactly meets timing.
    EXPECT_EQ(r.clock_period, max_arrival);
    EXPECT_EQ(r.wns, 0.0);

    // The critical path is a real path: consecutive nodes joined by an
    // arc, arrivals non-decreasing, ending at the worst endpoint arrival.
    const auto& path = r.critical_path;
    ASSERT_GE(path.size(), 1u);
    EXPECT_EQ(path.back().arrival, r.max_arrival);
    for (std::size_t i = 1; i < path.size(); ++i) {
      EXPECT_LE(path[i - 1].arrival, path[i].arrival);
      bool connected = false;
      for (std::size_t a = g.fanin_first(path[i].pin);
           a < g.fanin_first(path[i].pin + 1); ++a) {
        connected |= g.arc_src()[a] == path[i - 1].pin;
      }
      EXPECT_TRUE(connected) << "path hop " << i;
    }

    // Criticality lands in [0, 1] and the weight scale in [1, 1 + w].
    for (const double cr : an.net_criticality()) {
      EXPECT_GE(cr, 0.0);
      EXPECT_LE(cr, 1.0);
    }
    // The weight scale is positive, unit-mean, and ordered by
    // criticality (ratio between a crit-1 net and one below the floor
    // = 1 + w; a floor of 0 exposes the full quadratic ramp).
    std::vector<double> scale;
    an.net_weight_scale(8.0, 0.0, scale);
    ASSERT_EQ(scale.size(), b.netlist.num_nets());
    double mean = 0.0, smin = kInf, smax = 0.0;
    for (const double s : scale) {
      EXPECT_GT(s, 0.0);
      mean += s;
      smin = std::min(smin, s);
      smax = std::max(smax, s);
    }
    mean /= static_cast<double>(scale.size());
    EXPECT_NEAR(mean, 1.0, 1e-9);
    EXPECT_NEAR(smax / smin, 9.0, 1e-9);

    // A floor of 0.5 leaves sub-floor nets at the (common, normalized)
    // baseline scale: their scales collapse onto one value.
    std::vector<double> floored;
    an.net_weight_scale(8.0, 0.5, floored);
    double base = 0.0;
    for (std::size_t n = 0; n < floored.size(); ++n) {
      if (an.net_criticality()[n] <= 0.5) base = floored[n];
    }
    for (std::size_t n = 0; n < floored.size(); ++n) {
      if (an.net_criticality()[n] <= 0.5) {
        EXPECT_EQ(floored[n], base);
      } else {
        EXPECT_GT(floored[n], base);
      }
    }
  }
}

TEST(TimingAnalyzer, SomeNetIsFullyCritical) {
  const auto& b = alu32();
  const TimingGraph g(b.netlist);
  TimingAnalyzer an(g);
  an.analyze(b.placement);
  double max_crit = 0.0;
  for (const double c : an.net_criticality()) max_crit = std::max(max_crit, c);
  EXPECT_EQ(max_crit, 1.0) << "the tightest net defines criticality 1";
}

// ---- recorded bits ---------------------------------------------------------

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

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Recorded from the level-chunked analyzer, under a period that leaves four
// endpoints violating: the serial sweeps must reproduce every value.
TEST(TimingAnalyzer, ReportMatchesRecordedBits) {
  const auto& b = alu32();
  const TimingGraph g(b.netlist);
  TimingAnalyzer an(g, TimingOptions{160.0});
  const TimingReport& r = an.analyze(b.placement);
  EXPECT_EQ(bits(r.wns), 0xc024fe7aacbdc880ull) << r.wns;
  EXPECT_EQ(bits(r.tns), 0xc03852bf9ec9f770ull) << r.tns;
  EXPECT_EQ(bits(r.max_arrival), 0x40654fe7aacbdc88ull) << r.max_arrival;
  EXPECT_EQ(r.violations, 4u);
  EXPECT_EQ(r.endpoints, 370u);
  EXPECT_EQ(r.levels, 111u);
  ASSERT_EQ(r.critical_path.size(), 108u);
  EXPECT_EQ(r.critical_path.front().pin, 6927u);
  EXPECT_EQ(r.critical_path.back().pin, 10348u);
  std::vector<double> path;
  for (const PathNode& n : r.critical_path) {
    path.push_back(static_cast<double>(n.pin));
    path.push_back(n.arrival);
  }
  EXPECT_EQ(bit_checksum(path), 0xc030f9ff382b0a17ull);
  EXPECT_EQ(bit_checksum(an.arrival()), 0x7a1f48a65fb03a3eull);
  EXPECT_EQ(bit_checksum(an.required()), 0x162171d1629e4f5aull);
  EXPECT_EQ(bit_checksum(an.slack()), 0x0fda319b35845257ull);
  EXPECT_EQ(bit_checksum(an.net_criticality()), 0xbb99e780a4ed8532ull);
}

}  // namespace
}  // namespace dp::timing
