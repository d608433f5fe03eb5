#pragma once

#include <cstddef>

#include "netlist/design.hpp"
#include "netlist/netlist.hpp"

namespace dp::legal {

/// Legality guarantee pass: detects movable cells that overlap a
/// neighbour or a fixed cell in the core (netlist::fixed_row_blocks),
/// stick out of the core, or sit off the row/site grid, rips
/// them out, and Abacus-places them into the actual remaining free space
/// (every legally placed cell blocked out on its own). Cells that fit
/// nowhere keep their positions and are reported with a warning.
/// Idempotent on legal input. Returns the number of cells ripped out.
std::size_t repair_legality(const netlist::Netlist& nl,
                            const netlist::Design& design,
                            netlist::Placement& pl);

}  // namespace dp::legal
