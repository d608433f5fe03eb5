#pragma once

#include <vector>

#include "geom/rect.hpp"
#include "netlist/netlist.hpp"

namespace dp::netlist {

/// One placement row inside the core region.
struct Row {
  double y = 0.0;   ///< bottom edge of the row
  double lx = 0.0;  ///< left boundary
  double hx = 0.0;  ///< right boundary
};

/// Floorplan of a design: the core placement region and its row structure.
/// All rows are full-width and of uniform height (standard-cell region).
class Design {
 public:
  Design() = default;
  Design(geom::Rect core, double row_height, double site_width);

  /// Size a square-ish core for `netlist` at the given target utilization
  /// (movable area / core area).
  static Design for_netlist(const Netlist& netlist, double utilization);

  const geom::Rect& core() const { return core_; }
  double row_height() const { return row_height_; }
  double site_width() const { return site_width_; }
  std::size_t num_rows() const { return rows_.size(); }
  const Row& row(std::size_t i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Row whose vertical span contains `y` (clamped to valid rows).
  std::size_t nearest_row(double y) const;

  /// Snap an x coordinate to the site grid (toward the nearest site).
  double snap_x(double x) const;

  /// The first site edge at or right of `x`, and the last at or left of
  /// it; an x within 1e-9 sites of an edge counts as on it.
  double site_ceil(double x) const;
  double site_floor(double x) const;

 private:
  geom::Rect core_;
  double row_height_ = 1.0;
  double site_width_ = 0.25;
  std::vector<Row> rows_;
};

/// The part of one row a fixed cell covers.
struct RowBlock {
  std::size_t row = 0;
  double lx = 0.0;
  double hx = 0.0;
  CellId cell = kInvalidId;
};

/// The rows covered by fixed cells that reach into the core interior by
/// more than `tolerance` in both x and y (in-core macros and terminals;
/// pads on the core boundary only touch it). A cell blocks every row it
/// overlaps by more than `tolerance`, over its x extent clipped to the
/// core. Legalization places around these blocks, and the legality check
/// counts a movable cell on one as an overlap.
std::vector<RowBlock> fixed_row_blocks(const Netlist& netlist,
                                       const Design& design,
                                       const Placement& pl,
                                       double tolerance = 1e-6);

}  // namespace dp::netlist
