#pragma once

#include "gp/vars.hpp"
#include "netlist/design.hpp"
#include "netlist/flat_nets.hpp"

namespace dp::gp {

/// Quadratic-wirelength initial placement: every movable cell is iterated
/// to the weighted average of its nets' other-pin centroids (150 Jacobi
/// sweeps of the clique-model normal equations), anchored by the fixed
/// pads. A seeded jitter of a quarter row height then breaks exact
/// coordinate ties between identically connected cells. Positions are
/// clamped to the core. This provides the warm start for the nonlinear
/// global placement.
///
/// `nets` must be `netlist::FlatNets(nl, 2)`: each sweep sums the nets'
/// pin positions over it, in net pin order. The net weights are the
/// netlist's (`Net::weight`), not `nets.net_weight`.
void quadratic_initial_placement(const netlist::Netlist& nl,
                                 const netlist::Design& design,
                                 const VarMap& vars,
                                 const netlist::FlatNets& nets,
                                 netlist::Placement& pl);

/// As above, over a FlatNets built for the call.
void quadratic_initial_placement(const netlist::Netlist& nl,
                                 const netlist::Design& design,
                                 const VarMap& vars, netlist::Placement& pl);

}  // namespace dp::gp
