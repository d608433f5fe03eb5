#include "core/partition.hpp"

#include <algorithm>

namespace dp::core {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::StructureGroup;

netlist::StructureAnnotation partition_groups(
    const netlist::Netlist& nl, const netlist::Design& design,
    const netlist::StructureAnnotation& annotation) {
  netlist::StructureAnnotation out;
  const double max_width = design.core().width() * kPartitionMaxWidthFraction;
  const auto max_lanes = std::max<std::size_t>(
      2, static_cast<std::size_t>(kPartitionMaxLaneFraction *
                                  static_cast<double>(design.num_rows())));

  for (const StructureGroup& g : annotation.groups) {
    // Fixed convention across the pipeline: bits are vertical lanes
    // (rows), stages horizontal columns. Cutting the stage axis severs
    // only the thin pipeline nets between adjacent columns; cutting bits
    // would sever every carry chain crossing the cut.
    const std::size_t lanes = g.bits;
    const std::size_t cols = g.stages;
    auto cell_at = [&](std::size_t lane, std::size_t col) {
      return g.at(lane, col);
    };

    std::vector<double> col_width(cols, 0.0);
    for (std::size_t col = 0; col < cols; ++col) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const CellId c = cell_at(lane, col);
        if (c != kInvalidId) {
          col_width[col] = std::max(col_width[col], nl.cell_width(c));
        }
      }
    }

    // Consecutive column spans each at most max_width wide.
    std::vector<std::pair<std::size_t, std::size_t>> col_spans;
    std::size_t col = 0;
    while (col < cols) {
      std::size_t end = col;
      double width = 0.0;
      while (end < cols &&
             (end == col || width + col_width[end] <= max_width)) {
        width += col_width[end];
        ++end;
      }
      col_spans.emplace_back(col, end);
      col = end;
    }

    // Lane bands of at most max_lanes.
    std::vector<std::pair<std::size_t, std::size_t>> lane_bands;
    for (std::size_t lane = 0; lane < lanes; lane += max_lanes) {
      lane_bands.emplace_back(lane, std::min(lanes, lane + max_lanes));
    }

    if (col_spans.size() == 1 && lane_bands.size() == 1) {
      out.groups.push_back(g);
      continue;
    }

    std::size_t part = 0;
    for (const auto& [lane0, lane1] : lane_bands) {
      for (const auto& [c0, c1] : col_spans) {
        const std::size_t sub_lanes = lane1 - lane0;
        const std::size_t sub_cols = c1 - c0;
        StructureGroup sub = StructureGroup::make(
            g.name + "." + std::to_string(part++), sub_lanes, sub_cols);
        std::size_t filled = 0;
        for (std::size_t lane = lane0; lane < lane1; ++lane) {
          for (std::size_t c2 = c0; c2 < c1; ++c2) {
            const CellId c = cell_at(lane, c2);
            if (c == kInvalidId) continue;
            sub.at(lane - lane0, c2 - c0) = c;
            ++filled;
          }
        }
        if (filled >= 4) out.groups.push_back(std::move(sub));
      }
    }
  }
  return out;
}

}  // namespace dp::core
