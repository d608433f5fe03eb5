#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "netlist/design.hpp"
#include "netlist/netlist.hpp"
#include "netlist/structure.hpp"

namespace dp::eval {

/// Optional layers of an SVG rendering.
struct SvgOptions {
  /// Color datapath groups (one color per group); null = all cells grey.
  const netlist::StructureAnnotation* groups = nullptr;
  /// Congestion heatmap overlay: a `heatmap_bins` x `heatmap_bins`
  /// row-major grid of congestion ratios (route::CongestionReport::ratios),
  /// rendered as translucent bins between the core outline and the cells.
  /// 0 bins = no heatmap layer.
  std::size_t heatmap_bins = 0;
  std::vector<double> heatmap;
  /// Timing critical-path overlay: pin positions along the worst path
  /// (startpoint first), rendered as one polyline above the cells. Fewer
  /// than 2 points = no layer.
  std::vector<geom::Point> critical_path;
};

/// Writes an SVG rendering of a placement: core outline (class 'core'),
/// optional congestion heatmap bins (class 'heat'), movable cells (class
/// 'cell', or 'cell dp' with a per-group color for datapath cells), and
/// an optional critical-path polyline (class 'critpath'). Debugging and
/// documentation aid. Throws std::runtime_error ("svg: cannot write
/// PATH") when `path` cannot be opened or written.
void write_svg(const std::string& path, const netlist::Netlist& nl,
               const netlist::Design& design, const netlist::Placement& pl,
               const SvgOptions& options);

/// Convenience overload: groups layer only.
void write_svg(const std::string& path, const netlist::Netlist& nl,
               const netlist::Design& design, const netlist::Placement& pl,
               const netlist::StructureAnnotation* groups = nullptr);

}  // namespace dp::eval
