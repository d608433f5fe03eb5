#include "netlist/flat_nets.hpp"

namespace dp::netlist {

FlatNets::FlatNets(const Netlist& nl, std::size_t min_pins) {
  net_first.push_back(0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const auto pins = nl.net_pins(n);
    if (pins.size() < min_pins) continue;
    net_id.push_back(n);
    net_weight.push_back(nl.net(n).weight);
    for (const PinId p : pins) {
      const Pin& pin = nl.pin(p);
      pin_cell.push_back(pin.cell);
      pin_dx.push_back(pin.offset_x);
      pin_dy.push_back(pin.offset_y);
    }
    net_first.push_back(static_cast<std::uint32_t>(pin_cell.size()));
  }
}

}  // namespace dp::netlist
