#include "core/overlap.hpp"

#include <algorithm>
#include <cmath>

namespace dp::core {

using netlist::CellId;
using netlist::kInvalidId;

PlateOverlapPenalty::PlateOverlapPenalty(
    const netlist::Netlist& nl, const netlist::StructureAnnotation& groups,
    const netlist::Design& design)
    : nl_(&nl), groups_(&groups) {
  width_.reserve(groups.groups.size());
  height_.reserve(groups.groups.size());
  for (const auto& g : groups.groups) {
    double w = 0.0;
    for (std::size_t s = 0; s < g.stages; ++s) {
      double col = 0.0;
      for (std::size_t b = 0; b < g.bits; ++b) {
        const CellId c = g.at(b, s);
        if (c != kInvalidId) col = std::max(col, nl.cell_width(c));
      }
      w += col;
    }
    width_.push_back(w);
    height_.push_back(static_cast<double>(g.bits) * design.row_height());
  }
}

double PlateOverlapPenalty::eval(const netlist::Placement& pl,
                                 const gp::VarMap& vars, std::span<double> gx,
                                 std::span<double> gy) const {
  const std::size_t ng = groups_->groups.size();
  // Group mean centers and 1/n over movable members (0 for a group with
  // none), so gradients on the means can be distributed over members.
  cx_.assign(ng, 0.0);
  cy_.assign(ng, 0.0);
  inv_n_.assign(ng, 0.0);
  for (std::size_t g = 0; g < ng; ++g) {
    std::size_t n = 0;
    for (CellId c : groups_->groups[g].cells) {
      if (c == kInvalidId || !vars.is_movable(c)) continue;
      cx_[g] += pl[c].x;
      cy_[g] += pl[c].y;
      ++n;
    }
    if (n == 0) continue;
    cx_[g] /= static_cast<double>(n);
    cy_[g] /= static_cast<double>(n);
    inv_n_[g] = 1.0 / static_cast<double>(n);
  }
  // Adds (dx, dy) / n to every movable member of group g.
  auto spread = [&](std::size_t g, double dx, double dy) {
    for (CellId c : groups_->groups[g].cells) {
      if (c == kInvalidId || !vars.is_movable(c)) continue;
      const std::uint32_t var = vars.var(c);
      gx[var] += dx * inv_n_[g];
      gy[var] += dy * inv_n_[g];
    }
  };

  double value = 0.0;
  for (std::size_t i = 0; i < ng; ++i) {
    if (inv_n_[i] == 0.0) continue;
    for (std::size_t j = i + 1; j < ng; ++j) {
      if (inv_n_[j] == 0.0) continue;
      const double dx = cx_[i] - cx_[j];
      const double dy = cy_[i] - cy_[j];
      const double ox = (width_[i] + width_[j]) / 2.0 - std::abs(dx);
      const double oy = (height_[i] + height_[j]) / 2.0 - std::abs(dy);
      if (ox <= 0.0 || oy <= 0.0) continue;
      const double area = ox * oy;
      value += area * area;
      // d f / d cx_i = 2 * area * oy * d ox/d cx_i, with
      // d ox / d cx_i = -sign(dx); symmetric for j and for y.
      const double sx = dx >= 0.0 ? 1.0 : -1.0;
      const double sy = dy >= 0.0 ? 1.0 : -1.0;
      const double gx_i = -2.0 * area * oy * sx;
      const double gy_i = -2.0 * area * ox * sy;
      spread(i, gx_i, gy_i);
      spread(j, -gx_i, -gy_i);  // x - a*b == x + (-a)*b, bit for bit
    }
  }
  return value;
}

}  // namespace dp::core
