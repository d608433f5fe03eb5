#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace dp::netlist {

/// The nets with at least `min_pins` pins, flattened into contiguous CSR
/// arrays (smooth wirelength, congestion): kept net `kn` owns the pin
/// slots [net_first[kn], net_first[kn + 1]), in netlist net and pin order.
///
/// `chunk_first` splits the kept nets into fixed chunks for the
/// chunk-parallel wirelength kernel, balanced by pin count:
/// util::num_chunks(pins, kMinPinsPerChunk) of them at most, each
/// but the last holding at least kMinPinsPerChunk pins. The bounds depend
/// on the netlist alone, never on the thread count, so a kernel that
/// writes per-chunk slots and reduces them in chunk order gets the same
/// bits for every pool size.
struct FlatNets {
  static constexpr std::size_t kMinPinsPerChunk = 2048;

  FlatNets(const Netlist& nl, std::size_t min_pins);

  std::size_t num_nets() const { return net_id.size(); }
  std::size_t num_chunks() const { return chunk_first.size() - 1; }

  std::vector<std::uint32_t> net_first;  ///< kept net -> first pin slot
  std::vector<NetId> net_id;             ///< kept net -> NetId
  std::vector<double> net_weight;        ///< kept net -> weight
  std::vector<CellId> pin_cell;          ///< pin slot -> cell
  std::vector<double> pin_dx, pin_dy;    ///< pin offsets from cell center
  std::vector<std::uint32_t> chunk_first;  ///< chunk -> first kept net
};

}  // namespace dp::netlist
