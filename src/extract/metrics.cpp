#include "extract/metrics.hpp"

namespace dp::extract {

using netlist::CellId;
using netlist::kInvalidId;

ExtractionQuality compare_extraction(
    const netlist::Netlist& nl, const netlist::StructureAnnotation& extracted,
    const netlist::StructureAnnotation& truth) {
  ExtractionQuality q;
  q.groups_found = extracted.groups.size();

  const std::size_t n = nl.num_cells();
  struct TruthPos {
    int group = -1;
    std::size_t bit = 0;
    std::size_t stage = 0;
  };
  std::vector<TruthPos> pos(n);
  for (std::size_t g = 0; g < truth.groups.size(); ++g) {
    const auto& grp = truth.groups[g];
    for (std::size_t b = 0; b < grp.bits; ++b) {
      for (std::size_t s = 0; s < grp.stages; ++s) {
        const CellId c = grp.at(b, s);
        if (c != kInvalidId) {
          pos[c] = {static_cast<int>(g), b, s};
        }
      }
    }
  }

  const auto truth_member = truth.membership(n);
  const auto ext_member = extracted.membership(n);
  std::size_t hits = 0;
  for (CellId c = 0; c < n; ++c) {
    q.cells_truth += truth_member[c] ? 1u : 0u;
    q.cells_extracted += ext_member[c] ? 1u : 0u;
    hits += (truth_member[c] && ext_member[c]) ? 1u : 0u;
  }
  if (q.cells_extracted > 0) {
    q.precision =
        static_cast<double>(hits) / static_cast<double>(q.cells_extracted);
  }
  if (q.cells_truth > 0) {
    q.recall = static_cast<double>(hits) / static_cast<double>(q.cells_truth);
  }

  // Same-lane pair consistency, over both lane directions of each
  // extracted group (bit slices and stage columns both claim alignment).
  struct LinePairs {
    std::size_t pairs = 0, good = 0;
    std::size_t same_bit = 0, same_stage = 0;  ///< on one truth bit / stage
  };
  auto check_line = [&](const std::vector<CellId>& cells, LinePairs& line) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      for (std::size_t j = i + 1; j < cells.size(); ++j) {
        const TruthPos& a = pos[cells[i]];
        const TruthPos& b = pos[cells[j]];
        ++line.pairs;
        if (a.group < 0 || b.group < 0) continue;
        line.same_bit += a.bit == b.bit ? 1u : 0u;
        line.same_stage += a.group == b.group && a.stage == b.stage ? 1u : 0u;
        // Within one truth group: aligned iff same bit or same stage.
        // Across truth groups (chained units merged by extraction): the
        // same bit index is the correct datapath alignment.
        if (a.group == b.group
                ? (a.bit == b.bit || a.stage == b.stage)
                : a.bit == b.bit) {
          ++line.good;
        }
      }
    }
  };
  std::size_t pairs = 0, good = 0;
  for (const auto& g : extracted.groups) {
    LinePairs slices, stages;
    for (std::size_t b = 0; b < g.bits; ++b) check_line(g.slice(b), slices);
    for (std::size_t s = 0; s < g.stages; ++s) check_line(g.stage(s), stages);
    pairs += slices.pairs + stages.pairs;
    good += slices.good + stages.good;
    q.transposed_groups += slices.same_stage > slices.same_bit ? 1u : 0u;
  }
  if (pairs > 0) {
    q.lane_accuracy = static_cast<double>(good) / static_cast<double>(pairs);
  }
  return q;
}

}  // namespace dp::extract
