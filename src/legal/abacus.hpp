#pragma once

#include <vector>

#include "legal/legalizer.hpp"
#include "legal/rowmap.hpp"
#include "netlist/design.hpp"

namespace dp::legal {

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
class AbacusLegalizer {
 public:
  AbacusLegalizer(const netlist::Netlist& nl, const netlist::Design& design);

  /// Legalize `cells` into the free space of `rows`. Space is tracked
  /// internally; `rows` is not modified. Cells that fit nowhere are
  /// appended to `failed` (positions untouched) if provided.
  LegalizeStats run(netlist::Placement& pl,
                    const std::vector<netlist::CellId>& cells,
                    const RowMap& rows,
                    std::vector<netlist::CellId>* failed = nullptr);

  /// Legalize all movable cells around the fixed cells in the core.
  LegalizeStats run_all(netlist::Placement& pl);

 private:
  const netlist::Netlist* nl_;
  const netlist::Design* design_;
};

}  // namespace dp::legal
