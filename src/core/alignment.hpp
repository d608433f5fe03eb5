#pragma once

#include <vector>

#include "gp/vars.hpp"
#include "netlist/design.hpp"
#include "netlist/structure.hpp"

namespace dp::core {

/// The paper's structure-aware objective term: quadratic penalties that
/// pull every bit slice onto a common row, every stage onto a common
/// column, and keep consecutive slice/stage centerlines at least one
/// pitch apart (so the array cannot collapse onto a single line).
///
/// Bits run along y in every group: slices share a y, stages share an x.
/// The paper's per-group choice of the transposed orientation is not
/// reproduced; the legalizer and detailed placer treat slices as rows.
///
/// All sub-terms are quadratic in the coordinates, so gradients are exact
/// and cheap; the term plugs into the analytical global placer as an
/// ExtraTerm whose weight is scheduled against the density penalty.
class AlignmentPenalty final : public gp::ObjectiveTerm {
 public:
  AlignmentPenalty(const netlist::Netlist& nl,
                   const netlist::StructureAnnotation& groups,
                   const netlist::Design& design);

  double eval(const netlist::Placement& pl, const gp::VarMap& vars,
              std::span<double> gx, std::span<double> gy) const override;

 private:
  const netlist::Netlist* nl_;
  const netlist::StructureAnnotation* groups_;
  const netlist::Design* design_;
  /// Per group: mean movable-cell width (stage pitch reference).
  std::vector<double> stage_pitch_;
  /// eval() scratch, reused across groups and calls: per-lane movable
  /// mean coordinate and count of the current group.
  mutable std::vector<double> slice_mean_, stage_mean_;
  mutable std::vector<std::size_t> slice_n_, stage_n_;
};

}  // namespace dp::core
