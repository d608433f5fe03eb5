#include "core/alignment.hpp"

namespace dp::core {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::StructureGroup;

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

double AlignmentPenalty::value(const netlist::Placement& pl,
                               const gp::VarMap& vars) const {
  gx_.assign(vars.num_vars(), 0.0);
  gy_.assign(vars.num_vars(), 0.0);
  double value = 0.0;

  for (const StructureGroup& g : groups_->groups) {
    // Lines: bit slices share a y, stages share an x. The quadratic pull
    // toward the lane's movable mean has gradient 2*(c - mean).
    auto align_lines = [&](bool slices) {
      const std::size_t lanes = slices ? g.bits : g.stages;
      for (std::size_t i = 0; i < lanes; ++i) {
        double sum = 0.0;
        std::size_t n = 0;
        for_lane(g, slices, i, [&](CellId c) {
          if (!vars.is_movable(c)) return;
          sum += slices ? pl[c].y : pl[c].x;
          ++n;
        });
        if (n < 2) continue;
        const double mean = sum / static_cast<double>(n);
        double local = 0.0;
        for_lane(g, slices, i, [&](CellId c) {
          const auto v = vars.var(c);
          if (v == kInvalidId) return;
          const double d = (slices ? pl[c].y : pl[c].x) - mean;
          local += d * d;
          if (slices) {
            gy_[v] += 2.0 * d;
          } else {
            gx_[v] += 2.0 * d;
          }
        });
        value += local;
      }
    };
    align_lines(/*slices=*/true);
    align_lines(/*slices=*/false);
  }

  return value;
}

void AlignmentPenalty::gradient(std::span<double> gx, std::span<double> gy,
                                double scale) const {
  for (std::size_t v = 0; v < gx_.size(); ++v) {
    gx[v] += scale * gx_[v];
    gy[v] += scale * gy_[v];
  }
}

}  // namespace dp::core
