#include "netlist/structure.hpp"

namespace dp::netlist {

std::size_t StructureGroup::num_cells() const {
  std::size_t n = 0;
  for (CellId c : cells) {
    if (c != kInvalidId) ++n;
  }
  return n;
}

std::vector<CellId> StructureGroup::slice(std::size_t bit) const {
  std::vector<CellId> out;
  out.reserve(stages);
  for (std::size_t s = 0; s < stages; ++s) {
    const CellId c = at(bit, s);
    if (c != kInvalidId) out.push_back(c);
  }
  return out;
}

std::vector<CellId> StructureGroup::stage(std::size_t s) const {
  std::vector<CellId> out;
  out.reserve(bits);
  for (std::size_t b = 0; b < bits; ++b) {
    const CellId c = at(b, s);
    if (c != kInvalidId) out.push_back(c);
  }
  return out;
}

std::size_t StructureAnnotation::total_cells() const {
  std::size_t n = 0;
  for (const auto& g : groups) n += g.num_cells();
  return n;
}

std::vector<bool> StructureAnnotation::membership(
    std::size_t num_cells_in_netlist) const {
  std::vector<bool> in(num_cells_in_netlist, false);
  for (const auto& g : groups) {
    for (CellId c : g.cells) {
      if (c != kInvalidId) in[c] = true;
    }
  }
  return in;
}

}  // namespace dp::netlist
