#pragma once

#include <vector>

#include "gp/vars.hpp"
#include "netlist/design.hpp"
#include "netlist/structure.hpp"

namespace dp::core {

/// Smooth plate-overlap penalty for the alignment phase of global
/// placement.
///
/// The alignment term is translation-invariant: it shapes each datapath
/// group into a rigid plate but says nothing about where plates sit, and
/// the (area-shrunk) density model separates them only slowly. This term
/// treats every group as a rectangle of its known legalized footprint
/// (stage-column widths x bit rows) centered at the mean of its member
/// positions, and penalizes pairwise rectangle overlap:
///
///   f = sum_{i<j} (ox_ij * oy_ij)^2
///
/// where ox/oy are the per-axis overlaps of the two rectangles (0 when
/// disjoint). Quadratic in the overlap area, smooth, and zero at the
/// packed solution, so it vanishes exactly when plates are separated.
class PlateOverlapPenalty final : public gp::ObjectiveTerm {
 public:
  PlateOverlapPenalty(const netlist::Netlist& nl,
                      const netlist::StructureAnnotation& groups,
                      const netlist::Design& design);

  double eval(const netlist::Placement& pl, const gp::VarMap& vars,
              std::span<double> gx, std::span<double> gy) const override;

  double plate_width(std::size_t group) const { return width_[group]; }
  double plate_height(std::size_t group) const { return height_[group]; }

 private:
  const netlist::Netlist* nl_;
  const netlist::StructureAnnotation* groups_;
  std::vector<double> width_;
  std::vector<double> height_;
  /// eval() scratch: per-group mean center and 1/n of movable members.
  mutable std::vector<double> cx_, cy_, inv_n_;
};

}  // namespace dp::core
