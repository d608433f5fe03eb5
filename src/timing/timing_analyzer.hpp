#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "timing/timing_graph.hpp"

namespace dp::util {
class ThreadPool;
}

namespace dp::timing {

/// Delay model of the analyzer: a unit gate delay per cell arc and a
/// linear wire delay per net arc, proportional to the net's HPWL at the
/// analyzed placement (so timing responds to cell movement).
inline constexpr double kGateDelay = 1.0;
inline constexpr double kWireDelayPerUnit = 0.5;

/// Criticality floor of the timing-driven flow: GP reweighting only boosts
/// nets above it, and the detail move guard only considers nets at least
/// this critical.
inline constexpr double kCritFloor = 0.5;

/// Clock constraint of the analyzer.
struct TimingOptions {
  /// Target clock period. <= 0 selects it automatically as the worst
  /// endpoint arrival of the analyzed placement (zero worst slack), which
  /// makes WNS/TNS useful as relative metrics without a real constraint.
  double clock_period = 0.0;
};

/// One node of the critical-path trace.
struct PathNode {
  netlist::PinId pin = netlist::kInvalidId;
  double arrival = 0.0;
};

/// Scalar results of one analysis pass.
struct TimingReport {
  double wns = 0.0;          ///< worst (minimum) endpoint slack
  double tns = 0.0;          ///< sum of negative endpoint slacks
  double clock_period = 0.0; ///< period used (resolved when auto)
  double max_arrival = 0.0;  ///< worst endpoint arrival (critical delay)
  std::size_t endpoints = 0;
  std::size_t violations = 0;  ///< endpoints with negative slack
  std::size_t levels = 0;
  std::size_t loop_pins = 0;  ///< pins excluded by combinational loops
  /// Worst endpoint's path, startpoint first. Empty until analyze().
  std::vector<PathNode> critical_path;
};

/// Placement-feedback knobs, carried by PlacerConfig.
struct TimingControl {
  /// Analyze and report timing (post-GP and final) without steering.
  bool measure = false;
  /// Timing-driven mode: criticality-based net reweighting each GP outer
  /// iteration plus the detailed-placement WNS-proxy move guard.
  bool driven = false;
  /// Strength of the criticality reweight: a net at criticality 1 gets
  /// scale ~ 1 + weight (before unit-mean normalization).
  double weight = 4.0;
  TimingOptions model;

  bool enabled() const { return measure || driven; }
};

/// Static timing analyzer over a TimingGraph.
///
/// analyze() runs four sweeps: per-net wire delays from HPWL, forward
/// arrival (max over fanin), backward required (min over fanout, seeded
/// with the clock period at endpoints), and slack. The sweeps run
/// serially in topological order, and every reduction in a fixed order.
///
/// Pins on combinational loops are excluded from propagation and carry
/// arrival = required = slack = 0.
class TimingAnalyzer {
 public:
  TimingAnalyzer(const TimingGraph& graph, TimingOptions options = {});

  /// Does nothing: analyze() is serial, because on the analyzer a pool
  /// only ever cost time. Kept only for `flowbench`, which still calls it.
  void set_thread_pool(std::shared_ptr<util::ThreadPool> /*pool*/) {}

  const TimingGraph& graph() const { return *graph_; }

  /// Propagate delays at `pl`. Reusable: each call overwrites all state.
  const TimingReport& analyze(const netlist::Placement& pl);

  const TimingReport& report() const { return report_; }

  /// Per-pin results of the last analyze(), indexed by PinId.
  std::span<const double> arrival() const { return arrival_; }
  std::span<const double> required() const { return required_; }
  std::span<const double> slack() const { return slack_; }

  /// Per-net criticality in [0, 1] (1 = on the worst path), indexed by
  /// NetId; 0 for nets without timing arcs.
  std::span<const double> net_criticality() const { return net_crit_; }

  /// Per-net wire delay of the last analyze(), indexed by NetId.
  std::span<const double> net_delay() const { return net_delay_; }

  /// Fill `out[n] ~ 1 + strength * c^2` where c rescales criticality
  /// above `crit_floor` into [0, 1] (nets below the floor keep scale 1),
  /// then normalize to unit mean across nets: the multiplicative weight
  /// scale fed to SmoothWirelength in timing-driven GP. The floor
  /// concentrates the boost on the critical tail, and unit mean keeps the
  /// total wirelength gradient magnitude (and thus the wl/density balance
  /// of the GP lambda schedule) roughly unchanged.
  void net_weight_scale(double strength, double crit_floor,
                        std::vector<double>& out) const;

 private:
  const TimingGraph* graph_;
  TimingOptions options_;

  TimingReport report_;
  std::vector<double> net_delay_;   ///< per NetId
  std::vector<double> arc_delay_;   ///< per fanin arc slot
  std::vector<double> arrival_;     ///< per PinId
  std::vector<double> required_;    ///< per PinId
  std::vector<double> slack_;       ///< per PinId
  std::vector<double> net_slack_;   ///< per NetId (min arc margin)
  std::vector<double> net_crit_;    ///< per NetId
};

}  // namespace dp::timing
