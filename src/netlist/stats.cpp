#include "netlist/stats.hpp"

#include <algorithm>

namespace dp::netlist {

NetlistStats compute_stats(const Netlist& netlist,
                           const StructureAnnotation* truth) {
  NetlistStats s;
  s.num_cells = netlist.num_cells();
  s.num_movable = netlist.num_movable();
  s.num_fixed = s.num_cells - s.num_movable;
  s.num_nets = netlist.num_nets();
  s.num_pins = netlist.num_pins();
  s.movable_area = netlist.movable_area();
  for (NetId n = 0; n < s.num_nets; ++n) {
    s.max_net_degree = std::max(s.max_net_degree, netlist.net_pins(n).size());
  }
  if (s.num_nets > 0) {
    s.avg_net_degree =
        static_cast<double>(s.num_pins) / static_cast<double>(s.num_nets);
  }
  if (truth != nullptr) {
    s.num_groups = truth->groups.size();
    const auto member = truth->membership(s.num_cells);
    for (CellId c = 0; c < s.num_cells; ++c) {
      if (member[c] && !netlist.cell(c).fixed) ++s.datapath_cells;
    }
    if (s.num_movable > 0) {
      s.datapath_fraction = static_cast<double>(s.datapath_cells) /
                            static_cast<double>(s.num_movable);
    }
  }
  return s;
}

}  // namespace dp::netlist
