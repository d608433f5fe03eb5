#include "gp/density.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "geom/bin_grid.hpp"
#include "geom/rect.hpp"
#include "util/lanes.hpp"
#include "util/thread_pool.hpp"

namespace dp::gp {

using netlist::CellId;

namespace {

/// The cell chunks of passes 0 and 2 are fixed (independent of the
/// thread count), so they produce the same floating-point result for any
/// pool size.
constexpr std::size_t kMinCellsPerChunk = 512;
/// The penalty value is summed per group of whole bin rows, at most this
/// many groups, and the group sums are added in order.
constexpr std::size_t kMaxValueGroups = 64;
/// The most pass-1 accumulation blocks: one per worker up to this many.
/// Each block owns a run of whole value groups (see value()), so a cell
/// whose window spans a few bin rows is visited once per block it
/// reaches instead of once per row.
constexpr std::size_t kAccumBlocks = 8;

/// The most bins per side of a grid the constructor sizes itself.
constexpr std::size_t kMaxGridSide = 512;

/// Both window extents the constant-width fast path is compiled for.
constexpr std::size_t kFastWindow = 5;

/// A bell support this close below a whole number of bins gets one more
/// window bin, so the window's last bin clears the support by more than
/// any rounding of the bin centers.
constexpr double kWindowSlack = 1e-6;

/// The bins of a bell window on an axis of `nb` bins `wb` wide, for a
/// cell `wc` wide: floor(wc / wb + kWindowSlack) + 5, the most bin
/// centers a closed interval of length wc + 4 wb (the bell's support,
/// [c - r2, c + r2]) can hold, with the slack; at most nb. That is
/// ceil(wc / wb) + 4 unless wc / wb is whole.
std::size_t window_bins(double wc, double wb, std::size_t nb) {
  return std::min(
      nb, static_cast<std::size_t>(std::floor(wc / wb + kWindowSlack)) + 5);
}

/// Calls f(nx, ny) with the extents as compile-time constants for the
/// kFastWindow x kFastWindow window, so its loops have fixed trip counts,
/// and as plain values otherwise.
template <class F>
inline auto with_extents(std::size_t nx, std::size_t ny, F&& f) {
  using Fast = std::integral_constant<std::size_t, kFastWindow>;
  if (nx == kFastWindow && ny == kFastWindow) return f(Fast{}, Fast{});
  return f(nx, ny);
}

// Passes 0 and 2 run two cells with the same window at once, one cell per
// lane, each lane in exactly the arithmetic of one cell.
using util::LaneMask;
using util::Lanes;
using util::pick;

/// For two cells, one per lane, centered at `c` with bells reaching `r2`:
/// the first bin of each one's `n`-bin window on an axis of `nb` bins `wb`
/// wide starting at `lo`, the first bin where the bell or its slope is
/// non-zero, clamped so the window lies in the grid.
///
/// Let k be (c - r2 - lo) / wb truncated. If k >= 0, bin k - 1's center
/// lies at least wb / 2 left of c - r2 and bin k + 1's more than wb / 2
/// right of it, far beyond any rounding, so the first non-zero bin is k
/// or k + 1. Bin k decides, by the test lane_bell() makes on the same d:
/// a bin vanishes iff d >= r2. If c - r2 lies left of the grid, bin 0's center
/// lies more than wb / 2 right of it, and the window starts at bin 0.
/// From its first non-zero bin, a window of window_bins() bins reaches
/// past c + r2, so it holds every bin where the bell or its slope is
/// non-zero. Clamping moves the start left only at the upper grid edge,
/// where the window then still ends at the last bin.
inline std::array<long long, 2> window_starts(Lanes c, Lanes r2, double lo,
                                              double wb, long long nb,
                                              long long n) {
  const Lanes t = (c - r2 - lo) / wb;
  std::array<long long, 2> k = {static_cast<long long>(t[0]),
                                static_cast<long long>(t[1])};
  const Lanes mid = {static_cast<double>(k[0]) + 0.5,
                     static_cast<double>(k[1]) + 0.5};
  const LaneMask past = c - (lo + mid * wb) >= r2;  // -1 where true
  for (std::size_t l = 0; l < 2; ++l) {
    k[l] = std::clamp(k[l] - past[l], 0LL, nb - n);
  }
  return k;
}

/// The bell constants of two cells on one axis, one cell per lane.
struct LaneShape {
  Lanes r1, r2, a, b, m2a, b2;
};

template <class BellShape>
LaneShape lane_shape(const BellShape& x, const BellShape& y) {
  return {Lanes{x.r1, y.r1}, Lanes{x.r2, y.r2},   Lanes{x.a, y.a},
          Lanes{x.b, y.b},   Lanes{x.m2a, y.m2a}, Lanes{x.b2, y.b2}};
}

/// Two bells, one per lane: the potential and its slope.
struct LaneBell {
  Lanes p, dp;
};

/// `d` is the signed distance cell-center minus bin-center; `s` the shape
/// of the cells' bells on this axis. Each lane computes both pieces of
/// the bell and keeps the one its distance falls in:
///   |d| <= r1:  p = 1 - a d^2,        dp = -2 a d
///   |d| <= r2:  p = b (|d| - r2)^2,   dp = 2 b (|d| - r2) sign(d)
///   else:       p = dp = 0,
/// with |d| and sign(d) as bit operations (sign(d) is copysign(1, d),
/// which is right where it is used: d != 0 there).
inline LaneBell lane_bell(Lanes d, const LaneShape& s) {
  const LaneMask sign = {INT64_MIN, INT64_MIN};
  const Lanes ad = std::bit_cast<Lanes>(std::bit_cast<LaneMask>(d) & ~sign);
  const Lanes sgn = std::bit_cast<Lanes>(
      std::bit_cast<LaneMask>(Lanes{1.0, 1.0}) |
      (std::bit_cast<LaneMask>(d) & sign));
  const Lanes t = ad - s.r2;
  const Lanes zero = {0.0, 0.0};
  const LaneMask inner = ad <= s.r1;
  const LaneMask outer = ad <= s.r2;
  return {pick(inner, 1.0 - s.a * ad * ad, pick(outer, s.b * t * t, zero)),
          pick(inner, s.m2a * d, pick(outer, s.b2 * t * sgn, zero))};
}

/// Two adjacent doubles as one vector, at any alignment.
inline Lanes load(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

/// A slot's bells in bells_ from `at`, for windows of nx columns and ny
/// rows (DensityPenalty::Slot): the vectors of x-potentials, x-slopes,
/// y-potentials and y-slopes, one lane per cell.
template <class NX, class NY>
struct SlotBells {
  Lanes* at;
  NX nx;
  NY ny;

  Lanes& xp(std::size_t i) const { return at[i]; }
  Lanes& xd(std::size_t i) const { return at[nx + i]; }
  Lanes& yp(std::size_t j) const { return at[2 * nx + j]; }
  Lanes& yd(std::size_t j) const { return at[2 * nx + ny + j]; }
};

/// Adds `scale` times the exact overlap area of `r` with each bin it
/// touches to `grid`: the row-major nb x nb grid of bw x bh bins whose
/// lower left corner is `core`'s.
void add_overlap(std::vector<double>& grid, const geom::Rect& r,
                 double scale, const geom::Rect& core, double bw, double bh,
                 std::size_t nb) {
  const geom::BinSpan span = geom::bin_span(r, core, bw, bh, nb);
  for (long long by = span.y0; by <= span.y1; ++by) {
    for (long long bx = span.x0; bx <= span.x1; ++bx) {
      const geom::Rect bin{core.lx + static_cast<double>(bx) * bw,
                           core.ly + static_cast<double>(by) * bh,
                           core.lx + static_cast<double>(bx + 1) * bw,
                           core.ly + static_cast<double>(by + 1) * bh};
      grid[geom::bin_index(bx, by, nb)] += r.overlap_area(bin) * scale;
    }
  }
}

}  // namespace

DensityPenalty::BellShape DensityPenalty::bell_shape(double wc, double wb) {
  const double a = 4.0 / ((wc + 2.0 * wb) * (wc + 4.0 * wb));
  const double b = 2.0 / (wb * (wc + 4.0 * wb));
  return {wc / 2.0 + wb, wc / 2.0 + 2.0 * wb, a, b, -2.0 * a, 2.0 * b};
}

DensityPenalty::DensityPenalty(const netlist::Netlist& nl,
                               const netlist::Design& design,
                               std::size_t bins_per_side)
    : nl_(&nl), design_(&design) {
  nb_ = geom::grid_side(bins_per_side, nl.num_movable(), kMaxGridSide);
  const geom::Rect& core = design.core();
  bw_ = core.width() / static_cast<double>(nb_);
  bh_ = core.height() / static_cast<double>(nb_);

  // Preload exact overlap of fixed cells that intrude into the core.
  preload_.assign(nb_ * nb_, 0.0);
  density_.assign(nb_ * nb_, 0.0);

  // The bell shapes, the windows and the bell storage depend on the cell
  // sizes alone; set_area_scale() fills in the areas.
  const VarMap vars(nl);
  const auto movable = vars.movable_cells();
  shapes_.resize(movable.size());
  for (std::size_t v = 0; v < movable.size(); ++v) {
    const double wc = nl.cell_width(movable[v]);
    const double hc = nl.cell_height(movable[v]);
    CellShape& sh = shapes_[v];
    sh.x = bell_shape(wc, bw_);
    sh.y = bell_shape(hc, bh_);
    sh.nx = static_cast<std::uint32_t>(window_bins(wc, bw_, nb_));
    sh.ny = static_cast<std::uint32_t>(window_bins(hc, bh_, nb_));
    bells_per_value_ += sh.nx + sh.ny;
  }
  // The slots: the variables sorted by window shape (stable), chunked,
  // and paired within each chunk's runs of one shape; a variable left
  // over pairs with itself.
  std::vector<std::uint32_t> order(movable.size());
  for (std::uint32_t v = 0; v < order.size(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
    return std::pair{shapes_[a].nx, shapes_[a].ny} <
           std::pair{shapes_[b].nx, shapes_[b].ny};
  });
  std::uint32_t first = 0;
  chunk_slot_.assign(1, 0);
  util::for_chunks(nullptr, order.size(), kMinCellsPerChunk,
                   [&](std::size_t, std::size_t i0, std::size_t i1) {
    for (std::size_t at = i0; at < i1;) {
      const std::uint32_t a = order[at++];
      const bool pair = at < i1 && shapes_[order[at]].nx == shapes_[a].nx &&
                        shapes_[order[at]].ny == shapes_[a].ny;
      slots_.push_back({a, pair ? order[at++] : a, first});
      first += 2 * (shapes_[a].nx + shapes_[a].ny);
    }
    chunk_slot_.push_back(static_cast<std::uint32_t>(slots_.size()));
  });
  bells_.resize(first);
  chunk_bins_.resize(chunk_slot_.size() - 1);
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

double DensityPenalty::value(const netlist::Placement& pl,
                             const VarMap& vars) const {
  const geom::Rect& core = design_->core();
  const auto nbi = static_cast<long long>(nb_);
  density_ = preload_;
  err2_.resize(nb_ * nb_);

  const auto movable = vars.movable_cells();
  foot_.resize(movable.size());

  // Pass 0: windows, bells and per-cell normalization, slot by slot.
  // Each cell's window (window_starts()) holds every bin where its bell
  // or the bell's slope is non-zero. The window's other bins add terms to
  // every pass that are products with a +-0 factor, so they are +-0, and
  // x + (+-0) == x for every accumulator here: each starts at +0 or at the
  // non-negative preload, and a sum is -0 only if both addends are.
  //
  // spread(slot) runs one slot and returns the bins of its cells that
  // spread anywhere. A lone cell runs in both lanes and counts once.
  auto spread = [&](const Slot& slot) {
    const CellShape& sa = shapes_[slot.a];
    const CellShape& sb = shapes_[slot.b];
    const geom::Point& ca = pl[movable[slot.a]];
    const geom::Point& cb = pl[movable[slot.b]];
    Footprint& fa = foot_[slot.a];
    Footprint& fb = foot_[slot.b];
    return with_extents(sa.nx, sa.ny, [&](auto nx, auto ny) {
      const SlotBells<decltype(nx), decltype(ny)> view{&bells_[slot.first],
                                                       nx, ny};
      const LaneShape shx = lane_shape(sa.x, sb.x);
      const LaneShape shy = lane_shape(sa.y, sb.y);
      const Lanes cx = {ca.x, cb.x};
      const Lanes cy = {ca.y, cb.y};
      const auto wx = static_cast<long long>(nx);
      const auto wy = static_cast<long long>(ny);
      const auto bx0 = window_starts(cx, shx.r2, core.lx, bw_, nbi, wx);
      const auto by0 = window_starts(cy, shy.r2, core.ly, bh_, nbi, wy);
      for (std::size_t lane = 0; lane < 2; ++lane) {
        Footprint& f = lane == 0 ? fa : fb;
        f.bx0 = bx0[lane];
        f.bx1 = f.bx0 + wx - 1;
        f.by0 = by0[lane];
        f.by1 = f.by0 + wy - 1;
        // The cell's potentials lie in every second double from its lane.
        f.xp = reinterpret_cast<const double*>(&view.xp(0)) + lane;
        f.yp = reinterpret_cast<const double*>(&view.yp(0)) + lane;
      }
      // Bin k's center is lo + (k + 0.5) * w; k + 0.5 steps exactly.
      Lanes kx = {static_cast<double>(bx0[0]) + 0.5,
                  static_cast<double>(bx0[1]) + 0.5};
      for (std::size_t i = 0; i < nx; ++i, kx += 1.0) {
        const LaneBell e = lane_bell(cx - (core.lx + kx * bw_), shx);
        view.xp(i) = e.p;
        view.xd(i) = e.dp;
      }
      Lanes ky = {static_cast<double>(by0[0]) + 0.5,
                  static_cast<double>(by0[1]) + 0.5};
      for (std::size_t j = 0; j < ny; ++j, ky += 1.0) {
        const LaneBell e = lane_bell(cy - (core.ly + ky * bh_), shy);
        view.yp(j) = e.p;
        view.yd(j) = e.dp;
      }
      Lanes norm = {0.0, 0.0};
      for (std::size_t j = 0; j < ny; ++j) {
        const Lanes py = view.yp(j);
        for (std::size_t i = 0; i < nx; ++i) norm += view.xp(i) * py;
      }
      const Lanes zero = {0.0, 0.0};
      const Lanes inv =
          pick(norm > zero, Lanes{sa.area, sb.area} / norm, zero);
      fa.inv_norm = inv[0];
      fb.inv_norm = inv[1];
      // A cell spread nowhere is skipped by passes 1-2.
      std::uint64_t bins = 0;
      if (fa.inv_norm != 0.0) bins += std::uint64_t{nx} * ny;
      if (slot.b != slot.a && fb.inv_norm != 0.0) {
        bins += std::uint64_t{nx} * ny;
      }
      return bins;
    });
  };
  util::run(pool_.get(), chunk_bins_.size(), [&](std::size_t k) {
    std::uint64_t bins = 0;
    for (std::uint32_t s = chunk_slot_[k]; s < chunk_slot_[k + 1]; ++s) {
      bins += spread(slots_[s]);
    }
    chunk_bins_[k] = bins;
  });
  bins_visited_ = 0;
  for (const std::uint64_t bins : chunk_bins_) bins_visited_ += bins;
  bells_evaluated_ = bells_per_value_;

  // Pass 1: accumulate smoothed density over multi-row blocks, one per
  // worker up to kAccumBlocks; at one thread that is a single ascending
  // sweep. Every bin row has exactly one owning block, which adds
  // contributions in ascending cell order -- the same order as a serial
  // sweep, so the grid is bitwise identical for any block count, with no
  // reduction; each block takes, in one scan, the cells whose window
  // reaches its rows. The value is summed per value group (min(nb, 64) groups of
  // whole rows, the grouping the value has always been summed in) and the
  // group sums are added in order, so the value keeps its bits too; each
  // block owns a run of whole groups.
  const std::size_t num_groups = std::min(nb_, kMaxValueGroups);
  const std::size_t rows_per_group = (nb_ + num_groups - 1) / num_groups;
  const std::size_t blocks =
      std::min(kAccumBlocks, pool_ != nullptr ? pool_->size() : 1);
  const std::size_t groups_per_block = (num_groups + blocks - 1) / blocks;
  const std::size_t num_blocks =
      (num_groups + groups_per_block - 1) / groups_per_block;
  const std::size_t rows_per_block = rows_per_group * groups_per_block;
  scaled_rows_.resize(std::max(scaled_rows_.size(), num_blocks * nb_));

  group_value_.assign(num_groups, 0.0);

  util::run(pool_.get(), num_blocks, [&](std::size_t b) {
    const auto r0 = static_cast<long long>(b * rows_per_block);
    const auto r1 = std::min<long long>(
        nbi, static_cast<long long>((b + 1) * rows_per_block));
    double* q = &scaled_rows_[b * nb_];
    for (const Footprint& f : foot_) {
      if (f.inv_norm == 0.0 || f.by1 < r0 || f.by0 >= r1) continue;
      with_extents(f.width(), f.height(), [&](auto nx, auto) {
        // The x-row scaled once per cell: inv_norm * px * py is evaluated
        // as (inv_norm * px) * py, so q[i] * py keeps the bits.
        for (std::size_t i = 0; i < nx; ++i) q[i] = f.inv_norm * f.xp[2 * i];
        const long long by_lo = std::max(f.by0, r0);
        const long long by_hi = std::min(f.by1, r1 - 1);
        // Two bins per vector, each in its own lane's scalar arithmetic.
        for (long long by = by_lo; by <= by_hi; ++by) {
          const double py = f.yp[2 * (by - f.by0)];
          double* row = &density_[geom::bin_index(f.bx0, by, nb_)];
          std::size_t i = 0;
          for (; i + 2 <= nx; i += 2) {
            store(row + i, load(row + i) + load(q + i) * py);
          }
          if (i < nx) row[i] += q[i] * py;
        }
      });
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
  // Pass 2: gradient via chain rule (normalization treated as constant,
  // the standard NTUplace approximation), slot by slot. Embarrassingly
  // parallel over cells: variable v belongs to movable cell v alone.
  auto pull = [&](const Slot& slot) {
    const Footprint& fa = foot_[slot.a];
    const Footprint& fb = foot_[slot.b];
    if (fa.inv_norm == 0.0 && fb.inv_norm == 0.0) return;
    const Lanes inv = {fa.inv_norm, fb.inv_norm};
    const auto [ax, ay] =
        with_extents(fa.width(), fa.height(), [&](auto nx, auto ny) {
      const SlotBells<decltype(nx), decltype(ny)> view{&bells_[slot.first],
                                                       nx, ny};
      Lanes sx = {0.0, 0.0}, sy = {0.0, 0.0};
      for (std::size_t j = 0; j < ny; ++j) {
        const Lanes pyp = view.yp(j);
        const Lanes pyd = view.yd(j);
        const auto row = static_cast<long long>(j);
        const double* ea = &err2_[geom::bin_index(fa.bx0, fa.by0 + row, nb_)];
        const double* eb = &err2_[geom::bin_index(fb.bx0, fb.by0 + row, nb_)];
        for (std::size_t i = 0; i < nx; ++i) {
          // 2 * err * inv_norm * px * py, in that association.
          const Lanes e = Lanes{ea[i], eb[i]} * inv;
          sx += e * view.xd(i) * pyp;
          sy += e * view.xp(i) * pyd;
        }
      }
      return std::pair{sx, sy};
    });
    if (fa.inv_norm != 0.0) {
      gx[slot.a] += scale * ax[0];
      gy[slot.a] += scale * ay[0];
    }
    if (slot.b != slot.a && fb.inv_norm != 0.0) {
      gx[slot.b] += scale * ax[1];
      gy[slot.b] += scale * ay[1];
    }
  };
  util::run(pool_.get(), chunk_bins_.size(), [&](std::size_t k) {
    for (std::uint32_t s = chunk_slot_[k]; s < chunk_slot_[k + 1]; ++s) {
      pull(slots_[s]);
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
