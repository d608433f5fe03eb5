#include "netlist/flat_nets.hpp"

#include "util/thread_pool.hpp"

namespace dp::netlist {

FlatNets::FlatNets(const Netlist& nl, std::size_t min_pins) {
  net_first.push_back(0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& pins = nl.net(n).pins;
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

  // Close a chunk once it holds a 1/chunks share of the pins.
  const std::size_t pins = pin_cell.size();
  const std::size_t chunks = util::num_chunks(pins, kMinPinsPerChunk);
  const std::size_t per_chunk = (pins + chunks - 1) / chunks;
  chunk_first.push_back(0);
  std::size_t acc = 0;
  for (std::size_t kn = 0; kn < num_nets(); ++kn) {
    acc += net_first[kn + 1] - net_first[kn];
    if (acc >= per_chunk && kn + 1 < num_nets()) {
      chunk_first.push_back(static_cast<std::uint32_t>(kn + 1));
      acc = 0;
    }
  }
  chunk_first.push_back(static_cast<std::uint32_t>(num_nets()));
}

}  // namespace dp::netlist
