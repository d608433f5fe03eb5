#include "extract/signature.hpp"

#include <algorithm>

namespace dp::extract {

using netlist::CellId;
using netlist::PinId;

namespace {

/// Weisfeiler-Lehman-style refinement rounds. Round 0 hashes only the cell
/// function; each further round folds in the neighbor signatures reachable
/// through each pin. Few rounds keep array-boundary effects (bit 0 / bit
/// N-1 see pads instead of neighbors) from contaminating interior bits.
constexpr std::size_t kRounds = 2;
/// Nets with more pins than this are treated as control/bus rails: they
/// contribute only their degree bucket, not their pin multiset, so a
/// shared select/clock net cannot distinguish (or blow up) bit slices.
constexpr std::size_t kFanoutLimit = 12;

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  // 64-bit mix (splitmix-style) folded into the running hash.
  v += 0x9E3779B97F4A7C15ULL;
  v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
  v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
  v ^= v >> 31;
  return h * 0x100000001B3ULL ^ v;
}

}  // namespace

std::vector<std::uint64_t> cell_signatures(const netlist::Netlist& nl) {
  const std::size_t n = nl.num_cells();
  std::vector<std::uint64_t> sig(n), next(n);

  // Round 0: function only. Fixed cells (pads) hash to a distinct family
  // so boundary cells see "pad" rather than a random neighbor.
  for (CellId c = 0; c < n; ++c) {
    sig[c] = hash_combine(0x5EEDULL,
                          static_cast<std::uint64_t>(nl.cell_type(c).func));
    if (nl.cell(c).fixed) sig[c] = hash_combine(sig[c], 0xF1D0ULL);
  }

  std::vector<std::uint64_t> neigh;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (CellId c = 0; c < n; ++c) {
      std::uint64_t h = hash_combine(sig[c], 0xC0DEULL + round);
      for (PinId p : nl.cell_pins(c)) {
        const auto& pin = nl.pin(p);
        const auto net_pins = nl.net_pins(pin.net);
        std::uint64_t ph = hash_combine(0xBEEFULL, pin.port);
        if (net_pins.size() > kFanoutLimit) {
          // Control rail: only a coarse degree bucket.
          ph = hash_combine(ph, 0xFA40ULL + net_pins.size() / 8);
        } else {
          neigh.clear();
          for (PinId q : net_pins) {
            if (q == p) continue;
            const auto& other = nl.pin(q);
            neigh.push_back(
                hash_combine(sig[other.cell], other.port * 2 +
                                                  (other.dir ==
                                                           netlist::PinDir::
                                                               kOutput
                                                       ? 1u
                                                       : 0u)));
          }
          std::sort(neigh.begin(), neigh.end());
          for (std::uint64_t v : neigh) ph = hash_combine(ph, v);
        }
        // Pins are unordered within the cell hash? No: the port id is in
        // ph, and ports are a fixed set per type, so XOR keeps the hash
        // independent of pin creation order while staying port-sensitive.
        h ^= ph;
      }
      next[c] = h;
    }
    sig.swap(next);
  }
  return sig;
}

}  // namespace dp::extract
