#pragma once

#include <string>

#include "netlist/design.hpp"
#include "netlist/netlist.hpp"
#include "netlist/structure.hpp"

namespace dp::netlist {

/// A complete placement problem: netlist + floorplan + placement + the
/// ground-truth datapath structure. dpgen fills every field; a design read
/// from Bookshelf has no name and an empty `truth`, since the format
/// carries no structure.
struct Problem {
  std::string name;
  Netlist netlist;
  Design design;
  Placement placement;
  StructureAnnotation truth;
};

}  // namespace dp::netlist
