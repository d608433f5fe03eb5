#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/design.hpp"
#include "netlist/flat_nets.hpp"
#include "netlist/netlist.hpp"

namespace dp::util {
class ThreadPool;
}

namespace dp::route {

/// Routing supply per unit core area, per direction: a bin of area A can
/// carry `A * kTracksPerArea` units of horizontal wire, and likewise
/// vertically. Calibrated on the dpgen suite: the *average* RUDY demand
/// density of a placed design is ~2 per direction, so 4.0 leaves ~2x
/// headroom and only genuine hotspots (peak ratio 1.3-3x) read as
/// overflowed.
inline constexpr double kTracksPerArea = 4.0;
/// Local-congestion surcharge per pin, in wirelength units, split evenly
/// between the horizontal and vertical demand of the pin's bin (models the
/// via/escape cost RUDY's bbox term misses).
inline constexpr double kPinWeight = 0.5;

/// Grid of the congestion estimator.
struct CongestionOptions {
  /// Bins per side of the estimation grid (0 = auto: the same
  /// sqrt(movable)-derived power of two the density model uses, clamped
  /// to [16, 256]).
  std::size_t bins_per_side = 0;
};

/// Aggregate congestion metrics of one rasterized placement.
struct CongestionReport {
  std::size_t bins = 0;            ///< grid side length used
  double peak = 0.0;               ///< max per-bin congestion ratio
  double peak_h = 0.0;             ///< max horizontal demand / capacity
  double peak_v = 0.0;             ///< max vertical demand / capacity
  /// Wire demand above capacity, summed over bins and directions.
  double overflow_total = 0.0;
  /// overflow_total / total demand (0 = everything fits).
  double overflow_frac = 0.0;
  std::size_t overflowed_bins = 0;  ///< bins with ratio > 1 in either dir
  /// ACE-style percentile metrics: mean congestion ratio of the worst
  /// 0.5% / 1% / 2% / 5% of bins (by combined ratio).
  double ace_0_5 = 0.0;
  double ace_1 = 0.0;
  double ace_2 = 0.0;
  double ace_5 = 0.0;
  /// Combined ratio max(demand_h, demand_v) / capacity of every bin,
  /// row-major (y * bins + x); the SVG heatmap layer input.
  std::vector<double> ratios;

  bool overflowed() const { return overflowed_bins > 0; }
};

/// RUDY-style routing-congestion estimator on a uniform bin grid.
///
/// Each net spreads its expected wire uniformly over its bounding box
/// (RUDY: per-bin horizontal demand is `overlap_area * span_x / box_area`,
/// vertical likewise), boxes are expanded to at least one bin so flat and
/// point nets land somewhere, and every pin adds a fixed local surcharge
/// to its bin. Demand is compared against a per-direction capacity
/// proportional to bin area.
///
/// build() runs serially: the nets in ascending order, then the pin
/// surcharges, so every bin sums its contributions in one fixed order.
class CongestionMap {
 public:
  CongestionMap(const netlist::Netlist& nl, const netlist::Design& design,
                CongestionOptions options = {});

  /// Does nothing: build() is serial, because on the congestion map a
  /// pool only ever cost time. Kept only for `flowbench`, which still
  /// calls it.
  void set_thread_pool(std::shared_ptr<util::ThreadPool> /*pool*/) {}

  /// Rasterize net and pin demand at `pl`. Reusable: each call overwrites
  /// the grids.
  void build(const netlist::Placement& pl);

  /// Metrics of the most recent build().
  CongestionReport report() const;

  std::size_t bins_per_side() const { return nb_; }

  /// Per-bin wire demand of the last build (row-major, y * nb + x),
  /// pin surcharge included.
  std::span<const double> demand_h() const { return demand_h_; }
  std::span<const double> demand_v() const { return demand_v_; }

  /// Combined congestion ratio of one bin:
  /// max(demand_h, demand_v) / capacity.
  double ratio(std::size_t bx, std::size_t by) const;

  /// Bin containing a point (clamped to the grid).
  std::size_t bin_x(double x) const;
  std::size_t bin_y(double y) const;

 private:
  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  std::size_t nb_ = 0;
  double bw_ = 0.0, bh_ = 0.0;
  double cap_ = 0.0;  ///< per-bin wire capacity, each direction

  std::vector<double> demand_h_;  ///< row-major horizontal wire demand
  std::vector<double> demand_v_;  ///< row-major vertical wire demand

  /// Nets with >= 1 pin: single-pin nets still add their pin surcharge.
  netlist::FlatNets flat_;

  /// Bin index per flattened pin; scratch, persistent to keep allocation
  /// out of build().
  std::vector<std::uint32_t> pin_bin_;
};

}  // namespace dp::route
