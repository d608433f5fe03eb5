#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace dp::netlist {

/// A datapath group: a logical `bits x stages` array of cells. Entry
/// (b, s) is the cell implementing bit `b` at pipeline/logic stage `s`,
/// or kInvalidId where the array has a hole (partial regularity).
///
/// The same type describes both the generator's ground truth and the
/// extractor's output, so extraction quality is a direct comparison.
struct StructureGroup {
  std::string name;
  std::size_t bits = 0;
  std::size_t stages = 0;
  /// Row-major: cell(b, s) == cells[b * stages + s].
  std::vector<CellId> cells;

  CellId at(std::size_t bit, std::size_t stage) const {
    return cells[bit * stages + stage];
  }
  CellId& at(std::size_t bit, std::size_t stage) {
    return cells[bit * stages + stage];
  }

  static StructureGroup make(std::string name, std::size_t bits,
                             std::size_t stages) {
    StructureGroup g;
    g.name = std::move(name);
    g.bits = bits;
    g.stages = stages;
    g.cells.assign(bits * stages, kInvalidId);
    return g;
  }

  /// Number of non-hole entries.
  std::size_t num_cells() const;

  /// All non-hole cells of one bit row.
  std::vector<CellId> slice(std::size_t bit) const;

  /// All non-hole cells of one stage column.
  std::vector<CellId> stage(std::size_t s) const;
};

/// The set of datapath groups annotated on (or extracted from) a netlist.
struct StructureAnnotation {
  std::vector<StructureGroup> groups;

  std::size_t total_cells() const;

  /// Membership bitmap over all cells of the netlist.
  std::vector<bool> membership(std::size_t num_cells_in_netlist) const;
};

}  // namespace dp::netlist
