#pragma once

#include "netlist/structure.hpp"

namespace dp::extract {

/// Extraction quality versus a ground-truth annotation (Table 2).
struct ExtractionQuality {
  std::size_t groups_found = 0;
  std::size_t cells_extracted = 0;
  std::size_t cells_truth = 0;
  /// Fraction of extracted datapath cells that are true datapath cells.
  double precision = 0.0;
  /// Fraction of true datapath cells that were extracted.
  double recall = 0.0;
  /// Fraction of same-lane cell pairs (within extracted groups) that are
  /// also structurally related in the truth (same slice or same stage of
  /// one truth group); transposition-insensitive by construction.
  double lane_accuracy = 0.0;
  /// Extracted groups whose same-slice cell pairs share a truth stage more
  /// often than a truth bit: bits and stages swapped against the truth.
  /// The placer lays every group's bits along y, so such a group is placed
  /// transposed.
  std::size_t transposed_groups = 0;
};

ExtractionQuality compare_extraction(
    const netlist::Netlist& nl, const netlist::StructureAnnotation& extracted,
    const netlist::StructureAnnotation& truth);

}  // namespace dp::extract
