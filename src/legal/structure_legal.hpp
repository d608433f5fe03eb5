#pragma once

#include <functional>
#include <vector>

#include "legal/legalizer.hpp"
#include "legal/rowmap.hpp"
#include "netlist/structure.hpp"

namespace dp::legal {

struct StructureLegalizeStats {
  LegalizeStats slices;  ///< displacement of datapath cells
  LegalizeStats rest;    ///< displacement of remaining movable cells
  std::size_t groups_placed_as_blocks = 0;
  std::size_t groups_fallback = 0;  ///< packed per-unit instead of as a block
};

/// Structure-preserving legalization: each datapath group is legalized as
/// a rectangular array (one "row unit" per bit slice on consecutive rows,
/// stage columns sharing x offsets), folding arrays taller than the core
/// into side-by-side strips.
/// The remaining cells are then Abacus-legalized into the free space
/// around the plates. Cells that do not fit there keep their positions
/// (counted in `rest.cells_failed`); repair_legality places them next,
/// into the gaps the plates leave free cell by cell.
class StructureLegalizer {
 public:
  StructureLegalizer(const netlist::Netlist& nl,
                     const netlist::Design& design,
                     const netlist::StructureAnnotation& groups);

  /// `between` (optional) is invoked after the plates are committed and
  /// improved but before the remaining cells are legalized; it receives
  /// the placement and a mask of the frozen plate cells. The macro-style
  /// flow uses it to run a glue-only global placement around the plates.
  using BetweenHook =
      std::function<void(netlist::Placement&, const std::vector<bool>&)>;

  StructureLegalizeStats run(netlist::Placement& pl,
                             const BetweenHook& between = nullptr);

 private:
  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  const netlist::StructureAnnotation* groups_;
};

}  // namespace dp::legal
