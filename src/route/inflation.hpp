#pragma once

#include <cstddef>
#include <vector>

#include "route/congestion.hpp"

namespace dp::route {

/// Cell-inflation feedback: how overflowed bins translate into density
/// area scaling inside global placement.
///
/// Bins with combined congestion ratio above kInflationThreshold are
/// overflowed. Mid-GP peaks run 2-3x those of the final placement (cells
/// are still clumped), so only ratios above 2 count as hotspots there.
inline constexpr double kInflationThreshold = 2.0;
/// Area multiplier slope: a cell in a bin at ratio r gains
/// `1 + kInflationRate * (r - kInflationThreshold)` area.
inline constexpr double kInflationRate = 0.25;
/// Per-cell inflation cap, relative to the cell's scale before it.
inline constexpr double kInflationMaxScale = 2.5;

/// Congestion estimation and routability knobs (PlacerConfig::congestion).
struct CongestionControl {
  /// Rasterize congestion and fill the PlaceReport congestion fields
  /// (after GP and on the final placement). Implied by `refine`.
  bool measure = false;
  /// Routability inside global placement: at a fixed overflow checkpoint
  /// of the GP, inflate the cells in overflowed bins in the density model
  /// and let the GP spread them apart.
  bool refine = false;

  CongestionOptions map;

  bool enabled() const { return measure || refine; }
};

/// Multiply `scale` (density area factor per CellId) by the inflation of
/// each movable cell's bin, capped at kInflationMaxScale times the scale
/// the cell comes in with (in the placer, which inflates once per run, the
/// macro-shrink factor), so the cap is relative to the pipeline's own
/// scaling, not absolute. Cells with `eligible[c] == false` are skipped (e.g. frozen datapath
/// plate members). Returns the number of cells whose scale grew.
/// Deterministic: cells are visited in id order.
std::size_t inflate_cells(const netlist::Netlist& nl,
                          const CongestionMap& map,
                          const netlist::Placement& pl,
                          const std::vector<bool>& eligible,
                          std::vector<double>& scale);

}  // namespace dp::route
