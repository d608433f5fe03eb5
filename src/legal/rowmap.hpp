#pragma once

#include <vector>

#include "netlist/design.hpp"
#include "netlist/netlist.hpp"

namespace dp::legal {

/// A free interval within a row.
struct Segment {
  double lx = 0.0;
  double hx = 0.0;
  double width() const { return hx - lx; }
};

/// Free-space map of the placement rows: each row is a sorted list of free
/// segments, shrinking as obstacles (fixed cells, already-legal cells) are
/// blocked out. Legalizers allocate cells from the remaining segments.
class RowMap {
 public:
  explicit RowMap(const netlist::Design& design);

  /// The rows minus every netlist::fixed_row_blocks block of `pl`.
  RowMap(const netlist::Design& design, const netlist::Netlist& nl,
         const netlist::Placement& pl);

  const netlist::Design& design() const { return *design_; }
  std::size_t num_rows() const { return segments_.size(); }
  const std::vector<Segment>& segments(std::size_t row) const {
    return segments_[row];
  }

  /// Remove [lx, hx] from the free space of `row`.
  void block(std::size_t row, double lx, double hx);

  /// Total free width of a row.
  double free_width(std::size_t row) const;

  /// True iff [lx, hx] lies inside one free segment of `row`, up to `tol`.
  bool fits(std::size_t row, double lx, double hx, double tol) const;

 private:
  const netlist::Design* design_;
  std::vector<std::vector<Segment>> segments_;
};

}  // namespace dp::legal
