#pragma once

#include "gp/vars.hpp"
#include "netlist/design.hpp"

namespace dp::gp {

/// Quadratic-wirelength initial placement: every movable cell is iterated
/// to the weighted average of its nets' other-pin centroids (150 Jacobi
/// sweeps of the clique-model normal equations), anchored by the fixed
/// pads. A seeded jitter of a quarter row height then breaks exact
/// coordinate ties between identically connected cells. Positions are
/// clamped to the core. This provides the warm start for the nonlinear
/// global placement.
void quadratic_initial_placement(const netlist::Netlist& nl,
                                 const netlist::Design& design,
                                 const VarMap& vars, netlist::Placement& pl);

}  // namespace dp::gp
