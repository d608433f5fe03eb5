#pragma once

#include "netlist/design.hpp"
#include "netlist/structure.hpp"

namespace dp::core {

/// Maximum estimated group width as a fraction of the core width. A group
/// whose aligned layout would be wider is split into consecutive stage
/// spans (the classic "snaked" datapath floorplan). Kept below one third
/// of the core so the block packer can fit three plates per row band --
/// wider plates fragment the rows they cross and quickly make the
/// remaining windows infeasible.
inline constexpr double kPartitionMaxWidthFraction = 0.28;
/// Maximum lanes as a fraction of the core row count; taller groups are
/// split into lane bands.
inline constexpr double kPartitionMaxLaneFraction = 0.8;

/// Split extracted groups into geometrically feasible sub-arrays.
///
/// Extraction happily merges chained units (eight cascaded ALUs become one
/// 32 x 64 array); aligning such a group is infeasible when its natural
/// width exceeds the core, which makes the global placer thrash. This pass
/// bounds every group's aligned footprint; alignment, legalization, and
/// detailed placement all operate on the partitioned annotation.
netlist::StructureAnnotation partition_groups(
    const netlist::Netlist& nl, const netlist::Design& design,
    const netlist::StructureAnnotation& annotation);

}  // namespace dp::core
