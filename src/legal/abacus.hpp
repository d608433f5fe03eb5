#pragma once

#include <cstddef>
#include <vector>

#include "legal/rowmap.hpp"
#include "netlist/design.hpp"

namespace dp::legal {

/// One free row segment as Abacus fills it: its cells in arrival (x)
/// order and the cluster chain they collapsed into.
struct AbacusSegment {
  struct Cell {
    netlist::CellId cell = netlist::kInvalidId;
    double target_lx = 0.0;  ///< desired left edge
    double width = 0.0;
  };
  struct Cluster {
    double x = 0.0;  ///< left edge after collapse
    double e = 0.0;  ///< total weight
    double q = 0.0;  ///< weighted target sum
    double w = 0.0;  ///< total width
    std::size_t first = 0;  ///< index of the first member in `cells`
    std::size_t count = 0;
  };

  double lx = 0.0, hx = 0.0;
  double used = 0.0;  ///< total width of `cells`
  std::vector<Cell> cells;
  std::vector<Cluster> clusters;

  /// Appends `cell` (cells arrive in x order), collapses the chain and
  /// returns the cell's left edge.
  double insert(const Cell& cell);

  /// The left edge insert(cell) would return, bit for bit, without
  /// changing the segment: a read-only walk back over the clusters the
  /// insertion would merge, in insert()'s arithmetic.
  double trial(const Cell& cell) const;
};

/// Abacus row-based legalization (Spindler, Schlichtmann, Johannes):
/// cells are inserted in x order into the row segment minimizing their
/// resulting displacement; within a segment, overlapping cells are merged
/// into clusters whose optimal position is the mean of member targets,
/// collapsed until no overlap remains, so earlier cells yield to later
/// arrivals instead of pinning them behind a fill frontier.
///
/// Operates on a free-space RowMap, so it handles rows fragmented by
/// fixed macros. It is the only row legalizer: the flows run it on the
/// core around the fixed cells, and repair_legality on ripped-out cells.
///
/// Legalizes `cells` into the free space of `rows`. Space is tracked
/// internally; `rows` is not modified. Returns the cells that fit nowhere
/// (capacity exhausted), in the left-edge order Abacus tries cells in;
/// their positions are untouched.
std::vector<netlist::CellId> abacus(const netlist::Netlist& nl,
                                    const netlist::Design& design,
                                    netlist::Placement& pl,
                                    const std::vector<netlist::CellId>& cells,
                                    const RowMap& rows);

/// Abacus-legalizes all movable cells around the fixed cells in the core;
/// returns the cells that fit nowhere.
std::vector<netlist::CellId> abacus_all(const netlist::Netlist& nl,
                                        const netlist::Design& design,
                                        netlist::Placement& pl);

}  // namespace dp::legal
