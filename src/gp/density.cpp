#include "gp/density.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <type_traits>
#include <utility>

#include "geom/rect.hpp"
#include "util/lanes.hpp"
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
/// groups (see value()), so a cell whose window spans a few bin rows
/// is visited once or twice per evaluation instead of once per row.
constexpr std::size_t kAccumBlocks = 8;

/// Smallest power of two >= x (x >= 1).
std::size_t pow2_at_least(double x) {
  std::size_t p = 1;
  while (static_cast<double>(p) < x) p <<= 1;
  return p;
}

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

/// The first bin of the `n`-bin window of a cell centered at `c` whose
/// bell reaches `r2`, on an axis of `nb` bins `wb` wide starting at `lo`:
/// the first bin where the bell or its slope is non-zero, clamped so the
/// window lies in the grid.
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
inline long long window_start(double c, double r2, double lo, double wb,
                              long long nb, long long n) {
  auto k = static_cast<long long>((c - r2 - lo) / wb);
  if (c - (lo + (static_cast<double>(k) + 0.5) * wb) >= r2) ++k;
  return std::clamp(k, 0LL, nb - n);
}

// Passes 0 and 2 run two cells with the same window at once, one cell per
// lane, each lane in exactly the arithmetic of one cell.
using util::LaneMask;
using util::Lanes;
using util::pick;

/// The bell constants of two cells on one axis, one cell per lane.
struct LaneShape {
  template <class BellShape>
  LaneShape(const BellShape& x, const BellShape& y)
      : r1{x.r1, y.r1}, r2{x.r2, y.r2}, a{x.a, y.a}, b{x.b, y.b},
        m2a{x.m2a, y.m2a}, b2{x.b2, y.b2} {}
  Lanes r1, r2, a, b, m2a, b2;
};

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
  const double a = 4.0 / ((wc + 2.0 * wb) * (wc + 4.0 * wb));
  const double b = 2.0 / (wb * (wc + 4.0 * wb));
  return {wc / 2.0 + wb, wc / 2.0 + 2.0 * wb, a, b, -2.0 * a, 2.0 * b};
}

std::pair<std::uint32_t, std::uint32_t> DensityPenalty::next_pair(
    std::size_t& at, std::size_t end) const {
  const std::uint32_t a = order_[at++];
  if (at == end || shapes_[order_[at]].nx != shapes_[a].nx ||
      shapes_[order_[at]].ny != shapes_[a].ny) {
    return {a, a};
  }
  return {a, order_[at++]};
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
  }
  order_.resize(movable.size());
  for (std::uint32_t v = 0; v < order_.size(); ++v) order_[v] = v;
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
    return std::pair{shapes_[a].nx, shapes_[a].ny} <
           std::pair{shapes_[b].nx, shapes_[b].ny};
  });
  bells_per_value_ = 0;
  for (const std::uint32_t v : order_) {
    shapes_[v].first_bell = static_cast<std::uint32_t>(bells_per_value_);
    bells_per_value_ += shapes_[v].nx + shapes_[v].ny;
  }
  bells_.resize(bells_per_value_);
  chunk_bins_.resize(util::num_chunks(movable.size(), kMinCellsPerChunk));
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
  const std::size_t n_mov = movable.size();
  foot_.resize(n_mov);

  // Pass 0: windows, bells and per-cell normalization, two cells with the
  // same window at a time (next_pair()). Each cell's window
  // (window_start()) holds every bin where its bell or the bell's slope
  // is non-zero. The window's other bins add terms to every pass that are
  // products with a +-0 factor, so they are +-0, and x + (+-0) == x for
  // every accumulator here: each starts at +0 or at the non-negative
  // preload, and a sum is -0 only if both addends are.
  util::for_chunks(pool_.get(), n_mov, kMinCellsPerChunk,
                   [&](std::size_t k, std::size_t i0, std::size_t i1) {
    std::uint64_t bins = 0;
    for (std::size_t at = i0; at < i1;) {
      const auto [a, b] = next_pair(at, i1);
      for (const std::uint32_t v : {a, b}) {
        const CellShape& sh = shapes_[v];
        const geom::Point& c = pl[movable[v]];
        Footprint& f = foot_[v];
        f.bx0 = window_start(c.x, sh.x.r2, core.lx, bw_, nbi, sh.nx);
        f.bx1 = f.bx0 + sh.nx - 1;
        f.by0 = window_start(c.y, sh.y.r2, core.ly, bh_, nbi, sh.ny);
        f.by1 = f.by0 + sh.ny - 1;
        f.px = &bells_[sh.first_bell];
        f.py = f.px + sh.nx;
      }
      const CellShape& sa = shapes_[a];
      const CellShape& sb = shapes_[b];
      const geom::Point& ca = pl[movable[a]];
      const geom::Point& cb = pl[movable[b]];
      Footprint& fa = foot_[a];
      Footprint& fb = foot_[b];
      const Lanes norm = with_extents(sa.nx, sa.ny, [&](auto nx, auto ny) {
        // Bin k's center is lo + (k + 0.5) * w; k + 0.5 steps exactly.
        const LaneShape shx(sa.x, sb.x);
        const Lanes cx = {ca.x, cb.x};
        Lanes kx = {static_cast<double>(fa.bx0) + 0.5,
                    static_cast<double>(fb.bx0) + 0.5};
        for (std::size_t i = 0; i < nx; ++i, kx += 1.0) {
          const LaneBell e = lane_bell(cx - (core.lx + kx * bw_), shx);
          fa.px[i] = {e.p[0], e.dp[0]};
          fb.px[i] = {e.p[1], e.dp[1]};
        }
        const LaneShape shy(sa.y, sb.y);
        const Lanes cy = {ca.y, cb.y};
        Lanes ky = {static_cast<double>(fa.by0) + 0.5,
                    static_cast<double>(fb.by0) + 0.5};
        for (std::size_t j = 0; j < ny; ++j, ky += 1.0) {
          const LaneBell e = lane_bell(cy - (core.ly + ky * bh_), shy);
          fa.py[j] = {e.p[0], e.dp[0]};
          fb.py[j] = {e.p[1], e.dp[1]};
        }
        Lanes sum = {0.0, 0.0};
        for (std::size_t j = 0; j < ny; ++j) {
          const Lanes py = {fa.py[j].p, fb.py[j].p};
          for (std::size_t i = 0; i < nx; ++i) {
            sum += Lanes{fa.px[i].p, fb.px[i].p} * py;
          }
        }
        return sum;
      });
      fa.inv_norm = norm[0] > 0.0 ? sa.area / norm[0] : 0.0;
      fb.inv_norm = norm[1] > 0.0 ? sb.area / norm[1] : 0.0;
      // A cell spread nowhere is skipped by passes 1-2.
      if (fa.inv_norm != 0.0) bins += std::uint64_t{sa.nx} * sa.ny;
      if (b != a && fb.inv_norm != 0.0) bins += std::uint64_t{sb.nx} * sb.ny;
    }
    chunk_bins_[k] = bins;
  });
  bins_visited_ = 0;
  for (const std::uint64_t bins : chunk_bins_) bins_visited_ += bins;
  bells_evaluated_ = bells_per_value_;

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
      with_extents(f.width(), f.height(), [&](auto nx, auto) {
        // The x-row scaled once per cell: inv_norm * px * py is evaluated
        // as (inv_norm * px) * py, so q[i] * py keeps the bits.
        for (std::size_t i = 0; i < nx; ++i) q[i] = f.inv_norm * f.px[i].p;
        const long long by_lo = std::max(f.by0, r0);
        const long long by_hi = std::min(f.by1, r1 - 1);
        for (long long by = by_lo; by <= by_hi; ++by) {
          const double py = f.py[by - f.by0].p;
          double* row = &density_[bin(f.bx0, by)];
          for (std::size_t i = 0; i < nx; ++i) row[i] += q[i] * py;
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
  const std::size_t n_mov = foot_.size();

  // Pass 2: gradient via chain rule (normalization treated as constant,
  // the standard NTUplace approximation), two cells with the same window
  // at a time. Embarrassingly parallel over cells: variable v belongs to
  // movable cell v alone.
  util::for_chunks(pool_.get(), n_mov, kMinCellsPerChunk,
                   [&](std::size_t, std::size_t i0, std::size_t i1) {
    for (std::size_t at = i0; at < i1;) {
      const auto [a, b] = next_pair(at, i1);
      const Footprint& fa = foot_[a];
      const Footprint& fb = foot_[b];
      if (fa.inv_norm == 0.0 && fb.inv_norm == 0.0) continue;
      const Lanes inv = {fa.inv_norm, fb.inv_norm};
      const auto [ax, ay] =
          with_extents(fa.width(), fa.height(), [&](auto nx, auto ny) {
        Lanes sx = {0.0, 0.0}, sy = {0.0, 0.0};
        for (std::size_t j = 0; j < ny; ++j) {
          const Lanes pyp = {fa.py[j].p, fb.py[j].p};
          const Lanes pyd = {fa.py[j].dp, fb.py[j].dp};
          const double* ea = &err2_[bin(fa.bx0, fa.by0) + j * nb_];
          const double* eb = &err2_[bin(fb.bx0, fb.by0) + j * nb_];
          for (std::size_t i = 0; i < nx; ++i) {
            // 2 * err * inv_norm * px * py, in that association.
            const Lanes e = Lanes{ea[i], eb[i]} * inv;
            sx += e * Lanes{fa.px[i].dp, fb.px[i].dp} * pyp;
            sy += e * Lanes{fa.px[i].p, fb.px[i].p} * pyd;
          }
        }
        return std::pair{sx, sy};
      });
      if (fa.inv_norm != 0.0) {
        gx[a] += scale * ax[0];
        gy[a] += scale * ay[0];
      }
      if (b != a && fb.inv_norm != 0.0) {
        gx[b] += scale * ax[1];
        gy[b] += scale * ay[1];
      }
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
