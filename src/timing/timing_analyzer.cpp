#include "timing/timing_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "eval/metrics.hpp"

namespace dp::timing {

using netlist::NetId;
using netlist::PinId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

TimingAnalyzer::TimingAnalyzer(const TimingGraph& graph, TimingOptions options)
    : graph_(&graph), options_(options) {
  const std::size_t num_pins = graph.num_nodes();
  const std::size_t num_nets = graph.netlist().num_nets();
  net_delay_.assign(num_nets, 0.0);
  arc_delay_.assign(graph.num_arcs(), 0.0);
  arrival_.assign(num_pins, 0.0);
  required_.assign(num_pins, 0.0);
  slack_.assign(num_pins, 0.0);
  net_slack_.assign(num_nets, kInf);
  net_crit_.assign(num_nets, 0.0);
}

const TimingReport& TimingAnalyzer::analyze(const netlist::Placement& pl) {
  const TimingGraph& g = *graph_;
  const netlist::Netlist& nl = g.netlist();
  const std::size_t num_pins = g.num_nodes();
  const std::size_t num_nets = nl.num_nets();

  // Pass 0: per-net wire delay, linear in the net's HPWL at `pl`.
  for (std::size_t n = 0; n < num_nets; ++n) {
    net_delay_[n] =
        kWireDelayPerUnit * eval::net_hpwl(nl, static_cast<NetId>(n), pl);
  }
  for (std::size_t a = 0; a < g.num_arcs(); ++a) {
    arc_delay_[a] = g.arc_kind()[a] == ArcKind::kCell
                        ? kGateDelay
                        : net_delay_[g.arc_net()[a]];
  }

  // Pass 1: arrival, forward in topological order. Arcs strictly cross
  // levels, so every pin reads only already-final arrivals.
  std::fill(arrival_.begin(), arrival_.end(), 0.0);
  const std::span<const PinId> order = g.order();
  for (const PinId p : order) {
    double at = 0.0;
    for (std::size_t a = g.fanin_first(p); a < g.fanin_first(p + 1); ++a) {
      at = std::max(at, arrival_[g.arc_src()[a]] + arc_delay_[a]);
    }
    arrival_[p] = at;
  }

  // Resolve the clock period: an explicit constraint, or the worst
  // endpoint arrival (zero worst slack) when auto.
  double max_arrival = 0.0;
  for (const PinId e : g.endpoints()) {
    max_arrival = std::max(max_arrival, arrival_[e]);
  }
  if (g.endpoints().empty()) {
    for (const PinId p : order) max_arrival = std::max(max_arrival, arrival_[p]);
  }
  const double period =
      options_.clock_period > 0.0 ? options_.clock_period : max_arrival;

  // Pass 2: required, backward in reverse topological order. Endpoints
  // are seeded with the period; pins driving no endpoint keep +inf
  // (unconstrained).
  std::fill(required_.begin(), required_.end(), kInf);
  for (const PinId e : g.endpoints()) {
    required_[e] = std::min(required_[e], period);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const PinId p = *it;
    double rq = required_[p];
    for (std::size_t a = g.fanout_first(p); a < g.fanout_first(p + 1); ++a) {
      rq = std::min(rq, required_[g.fanout_dst()[a]] -
                            arc_delay_[g.fanout_arc()[a]]);
    }
    required_[p] = rq;
  }

  // Slack; loop pins are excluded from propagation and pinned to zero.
  for (std::size_t p = 0; p < num_pins; ++p) {
    slack_[p] = required_[p] - arrival_[p];
  }
  for (const PinId p : g.loop_pins()) {
    arrival_[p] = 0.0;
    required_[p] = 0.0;
    slack_[p] = 0.0;
  }

  // Endpoint summary, serial in ascending pin order.
  report_ = TimingReport{};
  report_.clock_period = period;
  report_.max_arrival = max_arrival;
  report_.endpoints = g.endpoints().size();
  report_.levels = g.num_levels();
  report_.loop_pins = g.loop_pins().size();
  double wns = kInf;
  PinId worst = netlist::kInvalidId;
  for (const PinId e : g.endpoints()) {
    const double s = slack_[e];
    if (s < wns) {
      wns = s;
      worst = e;
    }
    if (s < 0.0) {
      report_.tns += s;
      ++report_.violations;
    }
  }
  report_.wns = g.endpoints().empty() ? 0.0 : wns;

  // Critical path: walk the worst endpoint back along the fanin arc
  // maximizing arrival + delay (first arc in CSR order wins ties).
  if (worst != netlist::kInvalidId) {
    std::vector<PathNode> path;
    PinId cur = worst;
    for (;;) {
      path.push_back({cur, arrival_[cur]});
      const std::size_t a0 = g.fanin_first(cur);
      const std::size_t a1 = g.fanin_first(cur + 1);
      if (a0 == a1) break;
      std::size_t best = a0;
      double best_at = arrival_[g.arc_src()[a0]] + arc_delay_[a0];
      for (std::size_t a = a0 + 1; a < a1; ++a) {
        const double at = arrival_[g.arc_src()[a]] + arc_delay_[a];
        if (at > best_at) {
          best_at = at;
          best = a;
        }
      }
      cur = g.arc_src()[best];
    }
    std::reverse(path.begin(), path.end());
    report_.critical_path = std::move(path);
  }

  // Per-net slack: the tightest margin of any net arc, swept in fanin
  // CSR order; criticality normalizes it into [0, 1] across nets.
  std::fill(net_slack_.begin(), net_slack_.end(), kInf);
  for (PinId dst = 0; dst < num_pins; ++dst) {
    for (std::size_t a = g.fanin_first(dst); a < g.fanin_first(dst + 1);
         ++a) {
      if (g.arc_kind()[a] != ArcKind::kNet) continue;
      const double margin =
          required_[dst] - arrival_[g.arc_src()[a]] - arc_delay_[a];
      const NetId n = g.arc_net()[a];
      net_slack_[n] = std::min(net_slack_[n], margin);
    }
  }
  double smin = kInf, smax = -kInf;
  for (std::size_t n = 0; n < num_nets; ++n) {
    if (!std::isfinite(net_slack_[n])) continue;
    smin = std::min(smin, net_slack_[n]);
    smax = std::max(smax, net_slack_[n]);
  }
  const double spread = smax - smin;
  for (std::size_t n = 0; n < num_nets; ++n) {
    if (!std::isfinite(net_slack_[n]) || !(spread > 1e-12)) {
      net_crit_[n] = 0.0;
    } else {
      net_crit_[n] =
          std::clamp((smax - net_slack_[n]) / spread, 0.0, 1.0);
    }
  }

  return report_;
}

void TimingAnalyzer::net_weight_scale(double strength, double crit_floor,
                                      std::vector<double>& out) const {
  out.assign(net_crit_.size(), 1.0);
  if (out.empty()) return;
  const double floor = std::clamp(crit_floor, 0.0, 1.0 - 1e-9);
  double sum = 0.0;
  for (std::size_t n = 0; n < net_crit_.size(); ++n) {
    const double c =
        std::max(0.0, (net_crit_[n] - floor) / (1.0 - floor));
    out[n] = 1.0 + strength * c * c;
    sum += out[n];
  }
  // Normalize to unit mean: reweighting shifts emphasis toward critical
  // nets without inflating the total wirelength gradient, which would
  // upset the wl/density balance struck by the GP lambda schedule.
  const double inv_mean = static_cast<double>(out.size()) / sum;
  for (double& s : out) s *= inv_mean;
}

}  // namespace dp::timing
