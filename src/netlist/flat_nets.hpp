#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace dp::netlist {

/// The nets with at least `min_pins` pins, flattened into contiguous CSR
/// arrays (smooth wirelength, quadratic start, congestion): kept net `kn`
/// owns the pin slots [net_first[kn], net_first[kn + 1]), in netlist net
/// and pin order.
struct FlatNets {
  FlatNets(const Netlist& nl, std::size_t min_pins);

  std::size_t num_nets() const { return net_id.size(); }

  std::vector<std::uint32_t> net_first;  ///< kept net -> first pin slot
  std::vector<NetId> net_id;             ///< kept net -> NetId
  std::vector<double> net_weight;        ///< kept net -> weight
  std::vector<CellId> pin_cell;          ///< pin slot -> cell
  std::vector<double> pin_dx, pin_dy;    ///< pin offsets from cell center
};

}  // namespace dp::netlist
