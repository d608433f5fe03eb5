#include "gp/density.hpp"

#include <algorithm>
#include <cmath>

#include "geom/rect.hpp"
#include "util/thread_pool.hpp"

namespace dp::gp {

using netlist::CellId;

namespace {

/// Chunk/block counts are fixed (independent of the thread count), so
/// every pass produces the same floating-point result for any pool size.
constexpr std::size_t kMinCellsPerChunk = 512;
/// The penalty value is summed per group of whole bin rows, at most this
/// many groups, and the group sums are added in order.
constexpr std::size_t kMaxValueGroups = 64;
/// Pass-1 accumulation blocks. Each block owns a run of whole value
/// groups (see value()), so a cell whose footprint spans a few bin rows
/// is visited once or twice per evaluation instead of once per row.
constexpr std::size_t kAccumBlocks = 8;

/// Smallest power of two >= x (x >= 1).
std::size_t pow2_at_least(double x) {
  std::size_t p = 1;
  while (static_cast<double>(p) < x) p <<= 1;
  return p;
}

/// The most bins the bell window of a cell `wc` wide can span on an axis
/// of `nb` bins `wb` wide, wherever the cell is: the window is wc / wb + 4
/// bins wide, truncating its two ends adds at most 2 bins, and 1 more
/// absorbs the rounding of its ends.
std::size_t max_window_bins(double wc, double wb, std::size_t nb) {
  return std::min(nb, static_cast<std::size_t>(wc / wb) + 7);
}

/// Adds `scale` times the exact overlap area of `r` with each bin it
/// touches to `grid`: the row-major nb x nb grid of bw x bh bins whose
/// lower left corner is `core`'s.
void add_overlap(std::vector<double>& grid, const geom::Rect& r,
                 double scale, const geom::Rect& core, double bw, double bh,
                 std::size_t nb) {
  const auto nbi = static_cast<long long>(nb);
  const auto bx0 = std::max<long long>(
      0, static_cast<long long>(std::floor((r.lx - core.lx) / bw)));
  const auto bx1 = std::min<long long>(
      nbi - 1, static_cast<long long>(std::floor((r.hx - core.lx) / bw)));
  const auto by0 = std::max<long long>(
      0, static_cast<long long>(std::floor((r.ly - core.ly) / bh)));
  const auto by1 = std::min<long long>(
      nbi - 1, static_cast<long long>(std::floor((r.hy - core.ly) / bh)));
  for (long long by = by0; by <= by1; ++by) {
    for (long long bx = bx0; bx <= bx1; ++bx) {
      const geom::Rect bin{core.lx + static_cast<double>(bx) * bw,
                           core.ly + static_cast<double>(by) * bh,
                           core.lx + static_cast<double>(bx + 1) * bw,
                           core.ly + static_cast<double>(by + 1) * bh};
      grid[static_cast<std::size_t>(by) * nb +
           static_cast<std::size_t>(bx)] += r.overlap_area(bin) * scale;
    }
  }
}

}  // namespace

DensityPenalty::BellShape DensityPenalty::bell_shape(double wc, double wb) {
  return {wc / 2.0 + wb, wc / 2.0 + 2.0 * wb,
          4.0 / ((wc + 2.0 * wb) * (wc + 4.0 * wb)),
          2.0 / (wb * (wc + 4.0 * wb))};
}

/// `d` is the signed distance cell-center minus bin-center; `s` the shape
/// of the cell's bell on this axis.
inline DensityPenalty::Bell DensityPenalty::bell(double d,
                                                 const BellShape& s) {
  const double ad = std::abs(d);
  Bell out;
  if (ad <= s.r1) {
    out.p = 1.0 - s.a * ad * ad;
    out.dp = -2.0 * s.a * d;  // sign(d) * (-2 a |d|)
  } else if (ad <= s.r2) {
    const double t = ad - s.r2;
    out.p = s.b * t * t;
    out.dp = 2.0 * s.b * t * (d >= 0.0 ? 1.0 : -1.0);
  }
  return out;
}

DensityPenalty::DensityPenalty(const netlist::Netlist& nl,
                               const netlist::Design& design,
                               std::size_t bins_per_side)
    : nl_(&nl), design_(&design) {
  const std::size_t n_mov = nl.num_movable();
  nb_ = bins_per_side != 0
            ? bins_per_side
            : std::clamp<std::size_t>(
                  pow2_at_least(std::sqrt(static_cast<double>(n_mov))), 16,
                  512);
  const geom::Rect& core = design.core();
  bw_ = core.width() / static_cast<double>(nb_);
  bh_ = core.height() / static_cast<double>(nb_);

  // Preload exact overlap of fixed cells that intrude into the core.
  preload_.assign(nb_ * nb_, 0.0);
  density_.assign(nb_ * nb_, 0.0);

  // The bell shapes and the chunks' bell storage depend on the cell sizes
  // alone; set_area_scale() fills in the areas.
  const VarMap vars(nl);
  const auto movable = vars.movable_cells();
  shapes_.resize(movable.size());
  for (std::size_t v = 0; v < movable.size(); ++v) {
    shapes_[v].x = bell_shape(nl.cell_width(movable[v]), bw_);
    shapes_[v].y = bell_shape(nl.cell_height(movable[v]), bh_);
  }
  chunks_.resize(util::num_chunks(movable.size(), kMinCellsPerChunk));
  util::for_chunks(nullptr, movable.size(), kMinCellsPerChunk,
                   [&](std::size_t k, std::size_t v0, std::size_t v1) {
    std::size_t capacity = 0;
    for (std::size_t v = v0; v < v1; ++v) {
      capacity += max_window_bins(nl.cell_width(movable[v]), bw_, nb_) +
                  max_window_bins(nl.cell_height(movable[v]), bh_, nb_);
    }
    chunks_[k].bells.resize(capacity);
  });
  set_area_scale({});
}

void DensityPenalty::preload_obstacles(const netlist::Placement& pl,
                                       const VarMap& vars) {
  preload_.assign(nb_ * nb_, 0.0);
  for (CellId c = 0; c < nl_->num_cells(); ++c) {
    if (vars.var(c) != netlist::kInvalidId) continue;
    // A scale of 1 keeps the bits: x * 1.0 == x.
    add_overlap(preload_,
                geom::Rect::from_center(pl[c], nl_->cell_width(c),
                                        nl_->cell_height(c)),
                1.0, design_->core(), bw_, bh_, nb_);
  }
}

void DensityPenalty::set_area_scale(std::vector<double> scale) {
  area_scale_ = std::move(scale);
  area_scale_.resize(nl_->num_cells(), 1.0);
  // Variable v is the v-th movable cell in CellId order.
  scaled_total_ = 0.0;
  std::size_t v = 0;
  for (CellId c = 0; c < nl_->num_cells(); ++c) {
    if (nl_->cell(c).fixed) continue;
    shapes_[v].area = nl_->cell_area(c) * area_scale_[c];
    scaled_total_ += shapes_[v++].area;
  }
  target_per_bin_ = scaled_total_ / static_cast<double>(nb_ * nb_);
}

double DensityPenalty::eval(const netlist::Placement& pl, const VarMap& vars,
                            std::span<double> gx,
                            std::span<double> gy) const {
  const double v = value(pl, vars);
  gradient(gx, gy);
  return v;
}

double DensityPenalty::value(const netlist::Placement& pl,
                             const VarMap& vars) const {
  const geom::Rect& core = design_->core();
  const auto nbi = static_cast<long long>(nb_);
  density_ = preload_;
  err2_.resize(nb_ * nb_);

  const auto movable = vars.movable_cells();
  const std::size_t n_mov = movable.size();
  foot_.resize(n_mov);
  auto vanishes = [](const Bell& b) { return b.p == 0.0 && b.dp == 0.0; };

  // Pass 0: footprints, bells and per-cell normalization (independent per
  // cell). The window reaches about one column and one row past the bell;
  // its leading and trailing columns and rows where the bell and its slope
  // are both 0 are trimmed off. Every term they held, in any pass, is a
  // product with a +-0 factor, so it is +-0, and x + (+-0) == x for every
  // accumulator here: each starts at +0 or at the non-negative preload,
  // and a sum is -0 only if both addends are. The window bounds truncate,
  // which trims to the floored window: for a bound >= 0 the two agree, a
  // lower bound < 0 clamps to 0 either way, and an upper bound in (-1, 0)
  // adds only column or row 0, more than r2 from the cell, where the bell
  // and its slope vanish.
  util::for_chunks(pool_.get(), n_mov, kMinCellsPerChunk,
                   [&](std::size_t k, std::size_t v0, std::size_t v1) {
    Chunk& chunk = chunks_[k];
    chunk.bins = 0;
    chunk.bell_calls = 0;

    Bell* next = chunk.bells.data();
    for (std::size_t v = v0; v < v1; ++v) {
      const CellId c = movable[v];
      const double cx = pl[c].x;
      const double cy = pl[c].y;
      const BellShape& sx = shapes_[v].x;
      const BellShape& sy = shapes_[v].y;

      Footprint& f = foot_[v];
      f.bx0 = std::max<long long>(
          0, static_cast<long long>((cx - sx.r2 - core.lx) / bw_));
      f.bx1 = std::min<long long>(
          nbi - 1, static_cast<long long>((cx + sx.r2 - core.lx) / bw_));
      f.by0 = std::max<long long>(
          0, static_cast<long long>((cy - sy.r2 - core.ly) / bh_));
      f.by1 = std::min<long long>(
          nbi - 1, static_cast<long long>((cy + sy.r2 - core.ly) / bh_));
      const long long nx = std::max(0LL, f.bx1 - f.bx0 + 1);
      const long long ny = std::max(0LL, f.by1 - f.by0 + 1);
      chunk.bell_calls += static_cast<std::uint64_t>(nx + ny);

      Bell* px = next;
      for (long long bx = f.bx0; bx <= f.bx1; ++bx) {
        const double bcx = core.lx + (static_cast<double>(bx) + 0.5) * bw_;
        px[bx - f.bx0] = bell(cx - bcx, sx);
      }
      long long i0 = 0, i1 = nx - 1;  // kept columns, as row indices
      while (i0 <= i1 && vanishes(px[i0])) ++i0;
      while (i1 >= i0 && vanishes(px[i1])) --i1;
      Bell* py = px + nx;
      long long by0 = f.by1 + 1, by1 = f.by0 - 1;  // kept rows
      double norm = 0.0;
      for (long long by = f.by0; by <= f.by1; ++by) {
        const double bcy = core.ly + (static_cast<double>(by) + 0.5) * bh_;
        const Bell b = bell(cy - bcy, sy);
        py[by - f.by0] = b;
        if (!vanishes(b)) {
          by0 = std::min(by0, by);
          by1 = by;
        }
        if (b.p == 0.0) continue;
        for (long long i = i0; i <= i1; ++i) norm += px[i].p * b.p;
      }
      next = py + ny;
      f.inv_norm = norm > 0.0 ? shapes_[v].area / norm : 0.0;
      if (f.inv_norm == 0.0) continue;  // spread nowhere; passes 1-2 skip it
      f.px = px + i0;
      f.py = py + (by0 - f.by0);
      f.bx1 = f.bx0 + i1;
      f.bx0 += i0;
      f.by0 = by0;
      f.by1 = by1;
      chunk.bins += static_cast<std::uint64_t>((f.bx1 - f.bx0 + 1) *
                                               (f.by1 - f.by0 + 1));
    }
  });
  bins_visited_ = 0;
  bells_evaluated_ = 0;
  for (const Chunk& chunk : chunks_) {
    bins_visited_ += chunk.bins;
    bells_evaluated_ += chunk.bell_calls;
  }

  // Pass 1: accumulate smoothed density over kAccumBlocks multi-row
  // blocks. Every bin row has exactly one owning block, which adds
  // contributions in ascending cell order -- the same order as a serial
  // sweep, so the grid is bitwise identical for any thread count, with no
  // reduction. The value is summed per value group (min(nb, 64) groups of
  // whole rows, the grouping the value has always been summed in) and the
  // group sums are added in order, so the value keeps its bits too; each
  // block owns a run of whole groups.
  const std::size_t num_groups = std::min(nb_, kMaxValueGroups);
  const std::size_t rows_per_group = (nb_ + num_groups - 1) / num_groups;
  const std::size_t groups_per_block =
      (num_groups + kAccumBlocks - 1) / kAccumBlocks;
  const std::size_t num_blocks =
      (num_groups + groups_per_block - 1) / groups_per_block;
  const std::size_t rows_per_block = rows_per_group * groups_per_block;
  block_cells_.resize(num_blocks);
  for (auto& b : block_cells_) b.clear();
  for (std::size_t v = 0; v < n_mov; ++v) {
    if (foot_[v].inv_norm == 0.0) continue;
    const auto b0 = static_cast<std::size_t>(foot_[v].by0) / rows_per_block;
    const auto b1 = static_cast<std::size_t>(foot_[v].by1) / rows_per_block;
    for (std::size_t b = b0; b <= b1; ++b) {
      block_cells_[b].push_back(static_cast<std::uint32_t>(v));
    }
  }
  scaled_rows_.resize(std::max(scaled_rows_.size(), num_blocks * nb_));

  group_value_.assign(num_groups, 0.0);

  util::run(pool_.get(), num_blocks, [&](std::size_t b) {
    const auto r0 = static_cast<long long>(b * rows_per_block);
    const auto r1 = std::min<long long>(
        nbi, static_cast<long long>((b + 1) * rows_per_block));
    double* q = &scaled_rows_[b * nb_];
    for (const std::uint32_t v : block_cells_[b]) {
      const Footprint& f = foot_[v];
      // The x-row scaled once per cell: inv_norm * px * py is evaluated
      // as (inv_norm * px) * py, so q[i] * py keeps the bits.
      const auto w = static_cast<std::size_t>(f.bx1 - f.bx0 + 1);
      for (std::size_t i = 0; i < w; ++i) q[i] = f.inv_norm * f.px[i].p;
      const long long by_lo = std::max(f.by0, r0);
      const long long by_hi = std::min(f.by1, r1 - 1);
      for (long long by = by_lo; by <= by_hi; ++by) {
        const double py = f.py[by - f.by0].p;
        if (py == 0.0) continue;
        double* row = &density_[static_cast<std::size_t>(by) * nb_ +
                                static_cast<std::size_t>(f.bx0)];
        for (std::size_t i = 0; i < w; ++i) row[i] += q[i] * py;
      }
    }
    // The block's rows are final now; fold its groups' share of the
    // penalty value and keep 2 * error per bin for gradient().
    const std::size_t g1 = std::min(num_groups, (b + 1) * groups_per_block);
    for (std::size_t g = b * groups_per_block; g < g1; ++g) {
      const std::size_t i0 = std::min(g * rows_per_group, nb_) * nb_;
      const std::size_t i1 = std::min((g + 1) * rows_per_group, nb_) * nb_;
      double value = 0.0;
      for (std::size_t i = i0; i < i1; ++i) {
        const double e = density_[i] - target_per_bin_;
        err2_[i] = 2.0 * e;
        value += e * e;
      }
      group_value_[g] = value;
    }
  });
  double value = 0.0;
  for (const double v : group_value_) value += v;
  return value;
}

void DensityPenalty::gradient(std::span<double> gx, std::span<double> gy,
                              double scale) const {
  const std::size_t n_mov = foot_.size();

  // Pass 2: gradient via chain rule (normalization treated as constant,
  // the standard NTUplace approximation). Embarrassingly parallel over
  // cells: variable v belongs to movable cell v alone.
  util::for_chunks(pool_.get(), n_mov, kMinCellsPerChunk,
                   [&](std::size_t, std::size_t v0, std::size_t v1) {
    for (std::size_t v = v0; v < v1; ++v) {
      const Footprint& f = foot_[v];
      if (f.inv_norm == 0.0) continue;
      const auto w = static_cast<std::size_t>(f.bx1 - f.bx0 + 1);
      double gx_acc = 0.0, gy_acc = 0.0;
      for (long long by = f.by0; by <= f.by1; ++by) {
        const Bell py = f.py[by - f.by0];
        const double* e2 = &err2_[static_cast<std::size_t>(by) * nb_ +
                                  static_cast<std::size_t>(f.bx0)];
        for (std::size_t i = 0; i < w; ++i) {
          // 2 * err * inv_norm * px * py, in that association.
          const double s = e2[i] * f.inv_norm;
          gx_acc += s * f.px[i].dp * py.p;
          gy_acc += s * f.px[i].p * py.dp;
        }
      }
      gx[v] += scale * gx_acc;
      gy[v] += scale * gy_acc;
    }
  });
}

double DensityPenalty::overflow(const netlist::Placement& pl,
                                const VarMap& vars,
                                double target_density) const {
  const auto& nl = *nl_;
  std::vector<double> usage = preload_;
  for (const CellId c : vars.movable_cells()) {
    add_overlap(usage,
                geom::Rect::from_center(pl[c], nl.cell_width(c),
                                        nl.cell_height(c)),
                area_scale_[c], design_->core(), bw_, bh_, nb_);
  }

  const double cap = bw_ * bh_ * target_density;
  double over = 0.0;
  for (double u : usage) over += std::max(0.0, u - cap);
  return scaled_total_ > 0.0 ? over / scaled_total_ : 0.0;
}

}  // namespace dp::gp
