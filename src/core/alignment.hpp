#pragma once

#include "gp/vars.hpp"
#include "netlist/structure.hpp"

namespace dp::core {

/// The paper's structure-aware objective term: quadratic penalties that
/// pull every bit slice onto a common row and every stage onto a common
/// column. The value is the sum, over the slices' y and the stages' x, of
/// each movable cell's squared distance to its lane's movable mean; where
/// the lanes sit relative to each other carries no energy.
///
/// Bits run along y in every group: slices share a y, stages share an x.
/// The paper's per-group choice of the transposed orientation is not
/// reproduced; the legalizer and detailed placer treat slices as rows.
///
/// All sub-terms are quadratic in the coordinates, so gradients are exact
/// and cheap; the term plugs into the analytical global placer as an
/// ExtraTerm, weighted like the density penalty: normalized against the
/// wirelength force at the run's first outer iteration and doubled every
/// outer iteration after it.
class AlignmentPenalty final : public gp::ObjectiveTerm {
 public:
  explicit AlignmentPenalty(const netlist::StructureAnnotation& groups)
      : groups_(&groups) {}

  /// The penalty; adds `scale` times its gradient, computed alongside,
  /// into the cells of its lanes.
  double eval(const netlist::Placement& pl, const gp::VarMap& vars,
              std::span<double> gx, std::span<double> gy,
              double scale = 1.0) const override;

 private:
  const netlist::StructureAnnotation* groups_;
};

}  // namespace dp::core
