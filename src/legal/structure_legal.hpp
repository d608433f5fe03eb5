#pragma once

#include "legal/legalizer.hpp"
#include "legal/rowmap.hpp"
#include "netlist/structure.hpp"

namespace dp::legal {

struct StructureLegalizeStats {
  LegalizeStats slices;  ///< displacement of datapath cells
  LegalizeStats rest;    ///< displacement of remaining movable cells
  std::size_t groups_placed_as_blocks = 0;
  /// Groups with a chunk no window held: its cells are legalized with the
  /// remaining cells, cell by cell.
  std::size_t groups_fallback = 0;
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

  StructureLegalizeStats run(netlist::Placement& pl);

 private:
  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  const netlist::StructureAnnotation* groups_;
};

}  // namespace dp::legal
