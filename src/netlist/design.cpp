#include "netlist/design.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geom/bin_grid.hpp"

namespace dp::netlist {

Design::Design(geom::Rect core, double row_height, double site_width)
    : core_(core), row_height_(row_height), site_width_(site_width) {
  if (core.empty() || row_height <= 0.0 || site_width <= 0.0) {
    throw std::invalid_argument("Design: degenerate core or grid");
  }
  const auto nrows =
      static_cast<std::size_t>(std::floor(core.height() / row_height));
  rows_.reserve(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    rows_.push_back(
        {core.ly + static_cast<double>(r) * row_height, core.lx, core.hx});
  }
  if (rows_.empty()) {
    throw std::invalid_argument("Design: core shorter than one row");
  }
}

Design Design::for_netlist(const Netlist& netlist, double utilization) {
  if (utilization <= 0.0 || utilization > 1.0) {
    throw std::invalid_argument("Design::for_netlist: utilization in (0,1]");
  }
  const double area = netlist.movable_area() / utilization;
  // height = sqrt(area), rounded to whole rows; width from area.
  double height = std::sqrt(area);
  const double nrows = std::max(1.0, std::round(height / kRowHeight));
  height = nrows * kRowHeight;
  double width = area / height;
  // Round width to whole sites and keep at least the widest cell.
  double max_cell_width = 0.0;
  for (CellId c = 0; c < netlist.num_cells(); ++c) {
    if (!netlist.cell(c).fixed) {
      max_cell_width = std::max(max_cell_width, netlist.cell_width(c));
    }
  }
  width = std::max(width, max_cell_width);
  width = std::ceil(width / kSiteWidth) * kSiteWidth;
  return Design({0.0, 0.0, width, height}, kRowHeight, kSiteWidth);
}

std::size_t Design::nearest_row(double y) const {
  return geom::clamped_bin(y, core_.ly, row_height_, rows_.size());
}

double Design::snap_x(double x) const {
  const double rel = (x - core_.lx) / site_width_;
  return core_.lx + std::round(rel) * site_width_;
}

double Design::site_ceil(double x) const {
  return core_.lx + std::ceil((x - core_.lx) / site_width_ - 1e-9) *
                        site_width_;
}

double Design::site_floor(double x) const {
  return core_.lx + std::floor((x - core_.lx) / site_width_ + 1e-9) *
                        site_width_;
}

std::vector<RowBlock> fixed_row_blocks(const Netlist& netlist,
                                       const Design& design,
                                       const Placement& pl,
                                       double tolerance) {
  const geom::Rect& core = design.core();
  std::vector<RowBlock> blocks;
  for (CellId c = 0; c < netlist.num_cells(); ++c) {
    if (!netlist.cell(c).fixed) continue;
    const geom::Rect r = geom::Rect::from_center(
        pl[c], netlist.cell_width(c), netlist.cell_height(c));
    const double lx = std::max(r.lx, core.lx);
    const double hx = std::min(r.hx, core.hx);
    const double ly = std::max(r.ly, core.ly);
    const double hy = std::min(r.hy, core.hy);
    // Negated so that a non-finite position blocks nothing.
    if (!(hx - lx > tolerance && hy - ly > tolerance)) continue;
    for (std::size_t row = design.nearest_row(ly);
         row < design.num_rows() && design.row(row).y < hy - tolerance;
         ++row) {
      if (design.row(row).y + design.row_height() > ly + tolerance) {
        blocks.push_back({row, lx, hx, c});
      }
    }
  }
  return blocks;
}

}  // namespace dp::netlist
