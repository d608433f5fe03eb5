#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>

namespace dp::core {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::StructureGroup;

AlignmentPenalty::AlignmentPenalty(const netlist::Netlist& nl,
                                   const netlist::StructureAnnotation& groups,
                                   const netlist::Design& design)
    : nl_(&nl), groups_(&groups), design_(&design) {
  stage_pitch_.assign(groups.groups.size(), design.row_height());
  for (std::size_t g = 0; g < groups.groups.size(); ++g) {
    double total_w = 0.0;
    std::size_t n = 0;
    for (CellId c : groups.groups[g].cells) {
      if (c == kInvalidId) continue;
      total_w += nl.cell_width(c);
      ++n;
    }
    if (n > 0) stage_pitch_[g] = total_w / static_cast<double>(n);
  }
}

namespace {

/// Calls fn(c) for the cells of one lane of `g` in index order, skipping
/// holes: bit slice `i` (`slice`) or stage column `i`. The same cells as
/// StructureGroup::slice()/stage(), read in place instead of copied.
template <typename Fn>
void for_lane(const StructureGroup& g, bool slice, std::size_t i, Fn&& fn) {
  const std::size_t count = slice ? g.stages : g.bits;
  const std::size_t stride = slice ? 1 : g.stages;
  const std::size_t base = slice ? i * g.stages : i;
  for (std::size_t k = 0; k < count; ++k) {
    const CellId c = g.cells[base + k * stride];
    if (c != kInvalidId) fn(c);
  }
}

}  // namespace

double AlignmentPenalty::eval(const netlist::Placement& pl,
                              const gp::VarMap& vars, std::span<double> gx,
                              std::span<double> gy) const {
  double value = 0.0;

  for (std::size_t gi = 0; gi < groups_->groups.size(); ++gi) {
    const StructureGroup& g = groups_->groups[gi];

    // Lines: bit slices share a y, stages share an x. The quadratic pull
    // toward the mean has gradient 2*(c - mean). Also records every lane's
    // movable-cell mean and count for the springs.
    auto align_lines = [&](bool slices, std::vector<double>& means,
                           std::vector<std::size_t>& counts) {
      const std::size_t lanes = slices ? g.bits : g.stages;
      means.assign(lanes, 0.0);
      counts.assign(lanes, 0);
      for (std::size_t i = 0; i < lanes; ++i) {
        double sum = 0.0;
        std::size_t n = 0;
        for_lane(g, slices, i, [&](CellId c) {
          if (!vars.is_movable(c)) return;
          sum += slices ? pl[c].y : pl[c].x;
          ++n;
        });
        if (n == 0) continue;
        const double mean = sum / static_cast<double>(n);
        means[i] = mean;
        counts[i] = n;
        if (n < 2) continue;
        double local = 0.0;
        for_lane(g, slices, i, [&](CellId c) {
          const auto v = vars.var(c);
          if (v == kInvalidId) return;
          const double d = (slices ? pl[c].y : pl[c].x) - mean;
          local += d * d;
          if (slices) {
            gy[v] += 2.0 * d;
          } else {
            gx[v] += 2.0 * d;
          }
        });
        value += local;
      }
    };
    align_lines(/*slices=*/true, slice_mean_, slice_n_);
    align_lines(/*slices=*/false, stage_mean_, stage_n_);

    // Ordered ladder springs: consecutive slice (stage) centerlines at
    // exactly one *signed* pitch in index order. Unlike a symmetric
    // keep-apart spring, the signed form actively sorts lanes into their
    // extracted bit order (and stages left to right) -- once plates turn
    // rigid, gradient descent could never permute scrambled lanes, so the
    // order must be imposed while the placement is still fluid. The
    // direction (+/-) is re-estimated per group from the current span so
    // an array that settled upside down is not forced to flip.
    auto pitch_spring = [&](const std::vector<double>& means,
                            const std::vector<std::size_t>& counts,
                            double pitch, bool slices) {
      // Direction: sign of the overall span across occupied lanes.
      double first = 0.0, last = 0.0;
      bool have_first = false;
      for (std::size_t i = 0; i < means.size(); ++i) {
        if (counts[i] == 0) continue;
        if (!have_first) {
          first = means[i];
          have_first = true;
        }
        last = means[i];
      }
      const double dir = last >= first ? 1.0 : -1.0;

      double local = 0.0;
      for (std::size_t i = 0; i + 1 < means.size(); ++i) {
        if (counts[i] == 0 || counts[i + 1] == 0) continue;
        // v = signed violation of (mean[i+1] - mean[i]) == dir * pitch.
        const double v = means[i + 1] - means[i] - dir * pitch;
        local += v * v;
        const double gi_lo = -2.0 * v / static_cast<double>(counts[i]);
        const double gi_hi = 2.0 * v / static_cast<double>(counts[i + 1]);
        for (const std::size_t lane : {i, i + 1}) {
          const double step = lane == i ? gi_lo : gi_hi;
          for_lane(g, slices, lane, [&](CellId c) {
            const auto vv = vars.var(c);
            if (vv == kInvalidId) return;
            if (slices) {
              gy[vv] += step;
            } else {
              gx[vv] += step;
            }
          });
        }
      }
      return local;
    };

    value += pitch_spring(slice_mean_, slice_n_, design_->row_height(),
                          /*slices=*/true);
    value += pitch_spring(stage_mean_, stage_n_, stage_pitch_[gi],
                          /*slices=*/false);
  }

  return value;
}

}  // namespace dp::core
