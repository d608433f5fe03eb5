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
/// Each block owns a run of whole value groups (see evaluate()), so a cell
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
// lane, each lane in exactly the arithmetic of one cell; on AVX2 hosts
// pass 0 runs two such slots, four cells, per vector. The pass-0 helpers
// are written once over the vector type V (util::Lanes or util::Quad)
// and take vectors by reference: the four-lane instances are compiled
// for AVX2 only where they are inlined into an AVX2 entry point.
using util::Boxed;
using util::kLanesOf;
using util::Lanes;
using util::load;
using util::store;

/// The V {f(0), f(1), ...}, boxed.
template <class V, class F>
inline Boxed<V> lanes_of(F&& f) {
  if constexpr (kLanesOf<V> == 2) {
    return {V{f(0), f(1)}};
  } else {
    return {V{f(0), f(1), f(2), f(3)}};
  }
}

/// For cells centered at `c` (one per lane) with bells reaching `r2`: the
/// first bin of each one's `n`-bin window on an axis of `nb` bins `wb`
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
template <class V>
inline std::array<long long, kLanesOf<V>> window_starts(
    const V& c, const V& r2, double lo, double wb, long long nb,
    long long n) {
  const V t = (c - r2 - lo) / wb;
  std::array<long long, kLanesOf<V>> k;
  for (std::size_t l = 0; l < k.size(); ++l) {
    k[l] = static_cast<long long>(t[l]);
  }
  const V mid = lanes_of<V>([&](std::size_t l) {
                  return static_cast<double>(k[l]) + 0.5;
                }).v;
  const auto past = c - (lo + mid * wb) >= r2;  // -1 where true
  for (std::size_t l = 0; l < k.size(); ++l) {
    k[l] = std::clamp(k[l] - past[l], 0LL, nb - n);
  }
  return k;
}

/// `d` is the signed distance cell-center minus bin-center; `s` the shape
/// of the cells' bells on this axis. Each lane computes both pieces of
/// the bell and keeps the one its distance falls in, as potential `p` and
/// slope `dp`:
///   |d| <= r1:  p = 1 - a d^2,        dp = -2 a d
///   |d| <= r2:  p = b (|d| - r2)^2,   dp = 2 b (|d| - r2) sign(d)
///   else:       p = dp = 0,
/// with |d| and sign(d) as bit operations (sign(d) is copysign(1, d),
/// which is right where it is used: d != 0 there).
template <class V, class Shape>
inline void lane_bell(const V& d, const Shape& s, V& p, V& dp) {
  using M = decltype(d < d);
  const M sign = M{} | INT64_MIN;
  const M bits = __builtin_bit_cast(M, d);
  const V zero{};
  const V ad = __builtin_bit_cast(V, bits & ~sign);
  const V sgn =
      __builtin_bit_cast(V, __builtin_bit_cast(M, zero + 1.0) | (bits & sign));
  const V t = ad - s.r2;
  const M inner = ad <= s.r1;
  const M outer = ad <= s.r2;
  p = inner ? 1.0 - s.a * ad * ad : (outer ? s.b * t * t : zero);
  dp = inner ? s.m2a * d : (outer ? s.b2 * t * sgn : zero);
}

/// The bells of the slots a V spans (one slot per two lanes), each slot's
/// from `at[k]` (DensityPenalty::Slot), for windows of nx columns and ny
/// rows: the vectors of x-potentials, x-slopes, y-potentials and
/// y-slopes, one lane per cell. Lanes 2k and 2k + 1 of a V are slot k's
/// vector.
template <class V, class NX, class NY>
struct SlotBells {
  std::array<Lanes*, kLanesOf<V> / 2> at;
  NX nx;
  NY ny;

  std::size_t xp(std::size_t i) const { return i; }
  std::size_t xd(std::size_t i) const { return nx + i; }
  std::size_t yp(std::size_t j) const { return 2 * nx + j; }
  std::size_t yd(std::size_t j) const { return 2 * nx + ny + j; }

  void put(std::size_t idx, const V& v) const {
    for (std::size_t k = 0; k < at.size(); ++k) at[k][idx] = util::half(v, k);
  }
  void get(std::size_t idx, V& v) const {
    v = util::from_halves<V>([&](std::size_t k) { return at[k][idx]; }).v;
  }
  /// Slot 0's vector, as pass 2 reads it.
  Lanes& operator[](std::size_t idx) const { return at[0][idx]; }
};

/// Adds row[i] += q[i] * py for i < nx, V-wide, then two-wide, then one
/// at a time: every bin in its own lane's scalar arithmetic.
template <class V, class NX>
inline void add_row(double* row, const double* q, double py, NX nx) {
  std::size_t i = 0;
  for (; i + kLanesOf<V> <= nx; i += kLanesOf<V>) {
    V r, qv;
    std::memcpy(&r, row + i, sizeof r);
    std::memcpy(&qv, q + i, sizeof qv);
    r += qv * py;
    std::memcpy(row + i, &r, sizeof r);
  }
  for (; i + 2 <= nx; i += 2) store(row + i, load(row + i) + load(q + i) * py);
  if (i < nx) row[i] += q[i] * py;
}

/// Adds `scale` times the exact overlap area of `r` with each bin it
/// touches to `grid`: the row-major nb x nb grid of bw x bh bins whose
/// lower left corner is `core`'s. A bin's overlap is Rect::overlap_area's
/// product of the column's and the row's overlap, each computed once per
/// call (`col_w` is scratch); a bin where either is not positive, which
/// would add +0, is skipped.
void add_overlap(std::vector<double>& grid, const geom::Rect& r,
                 double scale, const geom::Rect& core, double bw, double bh,
                 std::size_t nb, std::vector<double>& col_w) {
  const geom::BinSpan span = geom::bin_span(r, core, bw, bh, nb);
  if (span.x0 > span.x1) return;
  col_w.clear();
  for (long long bx = span.x0; bx <= span.x1; ++bx) {
    col_w.push_back(
        std::min(r.hx, core.lx + static_cast<double>(bx + 1) * bw) -
        std::max(r.lx, core.lx + static_cast<double>(bx) * bw));
  }
  for (long long by = span.y0; by <= span.y1; ++by) {
    const double h =
        std::min(r.hy, core.ly + static_cast<double>(by + 1) * bh) -
        std::max(r.ly, core.ly + static_cast<double>(by) * bh);
    if (!(h > 0.0)) continue;
    double* row = &grid[geom::bin_index(span.x0, by, nb)];
    for (std::size_t i = 0; i < col_w.size(); ++i) {
      if (col_w[i] > 0.0) row[i] += col_w[i] * h * scale;
    }
  }
}

}  // namespace

DensityPenalty::BellLanes<double> DensityPenalty::bell_shape(double wc,
                                                              double wb) {
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
    CellShape& sh = shapes_[v];
    sh.nx = static_cast<std::uint32_t>(
        window_bins(nl.cell_width(movable[v]), bw_, nb_));
    sh.ny = static_cast<std::uint32_t>(
        window_bins(nl.cell_height(movable[v]), bh_, nb_));
    bells_per_eval_ += sh.nx + sh.ny;
  }
  // The bell constants of a slot's cells on one axis, a's and b's.
  auto slot_bells = [&](std::uint32_t a, std::uint32_t b,
                        double (netlist::Netlist::*size)(CellId) const,
                        double wb) {
    const BellLanes<double> sa = bell_shape((nl.*size)(movable[a]), wb);
    const BellLanes<double> sb = bell_shape((nl.*size)(movable[b]), wb);
    return BellLanes<Lanes>{Lanes{sa.r1, sb.r1},   Lanes{sa.r2, sb.r2},
                            Lanes{sa.a, sb.a},     Lanes{sa.b, sb.b},
                            Lanes{sa.m2a, sb.m2a}, Lanes{sa.b2, sb.b2}};
  };
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
      const std::uint32_t b = pair ? order[at++] : a;
      slots_.push_back({a, b, first,
                        slot_bells(a, b, &netlist::Netlist::cell_width, bw_),
                        slot_bells(a, b, &netlist::Netlist::cell_height, bh_)});
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
  std::vector<double> col_w;
  for (CellId c = 0; c < nl_->num_cells(); ++c) {
    if (vars.var(c) != netlist::kInvalidId) continue;
    // A scale of 1 keeps the bits: x * 1.0 == x.
    add_overlap(preload_,
                geom::Rect::from_center(pl[c], nl_->cell_width(c),
                                        nl_->cell_height(c)),
                1.0, design_->core(), bw_, bh_, nb_, col_w);
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

/// The pass-0 and pass-1 kernels, written once over the vector type and
/// instantiated two-lane for every host and four-lane for AVX2 hosts.
struct DensityPenalty::Kernels {
  /// What pass 0 reads besides the penalty's own state.
  struct Spread {
    const DensityPenalty* d;
    const netlist::Placement* pl;
    std::span<const CellId> movable;
  };

  /// The bell constants on one axis of the slots from `s` that one V
  /// spans.
  template <class V>
  static BellLanes<V> group_bells(const Slot* s,
                                  BellLanes<Lanes> Slot::*axis) {
    auto join = [&](Lanes BellLanes<Lanes>::*c) {
      return util::from_halves<V>([&](std::size_t k) {
        return s[k].*axis.*c;
      });
    };
    return {join(&BellLanes<Lanes>::r1).v,  join(&BellLanes<Lanes>::r2).v,
            join(&BellLanes<Lanes>::a).v,   join(&BellLanes<Lanes>::b).v,
            join(&BellLanes<Lanes>::m2a).v, join(&BellLanes<Lanes>::b2).v};
  }

  /// Pass 0 for the kLanesOf<V> / 2 slots from `s`, all with windows of
  /// nx x ny bins: each cell's window, bells and normalization. Returns
  /// the bins of the cells that spread anywhere; a lone cell runs in both
  /// lanes of its slot and counts once.
  template <class V, class NX, class NY>
  static std::uint64_t spread(const Spread& c, const Slot* s, NX nx, NY ny) {
    constexpr std::size_t kN = kLanesOf<V>;
    const DensityPenalty& d = *c.d;
    const geom::Rect& core = d.design_->core();
    const auto nbi = static_cast<long long>(d.nb_);
    SlotBells<V, NX, NY> view{{}, nx, ny};
    std::array<std::uint32_t, kN> var;
    for (std::size_t k = 0; k < kN / 2; ++k) {
      view.at[k] = &d.bells_[s[k].first];
      var[2 * k] = s[k].a;
      var[2 * k + 1] = s[k].b;
    }
    std::array<const geom::Point*, kN> at;
    for (std::size_t l = 0; l < kN; ++l) at[l] = &(*c.pl)[c.movable[var[l]]];
    const BellLanes<V> shx = group_bells<V>(s, &Slot::x);
    const BellLanes<V> shy = group_bells<V>(s, &Slot::y);
    const V cx = lanes_of<V>([&](std::size_t l) { return at[l]->x; }).v;
    const V cy = lanes_of<V>([&](std::size_t l) { return at[l]->y; }).v;
    const V area = lanes_of<V>([&](std::size_t l) {
                     return d.shapes_[var[l]].area;
                   }).v;
    const auto wx = static_cast<long long>(nx);
    const auto wy = static_cast<long long>(ny);
    const auto bx0 = window_starts(cx, shx.r2, core.lx, d.bw_, nbi, wx);
    const auto by0 = window_starts(cy, shy.r2, core.ly, d.bh_, nbi, wy);
    for (std::size_t l = 0; l < kN; ++l) {
      Footprint& f = d.foot_[var[l]];
      f.bx0 = bx0[l];
      f.bx1 = f.bx0 + wx - 1;
      f.by0 = by0[l];
      f.by1 = f.by0 + wy - 1;
      // The cell's potentials lie in every second double from its lane.
      const double* bells =
          reinterpret_cast<const double*>(view.at[l / 2]) + l % 2;
      f.xp = bells + 2 * view.xp(0);
      f.yp = bells + 2 * view.yp(0);
    }
    // Bin k's center is lo + (k + 0.5) * w; k + 0.5 steps exactly.
    V kx = lanes_of<V>([&](std::size_t l) {
             return static_cast<double>(bx0[l]) + 0.5;
           }).v;
    V ky = lanes_of<V>([&](std::size_t l) {
             return static_cast<double>(by0[l]) + 0.5;
           }).v;
    for (std::size_t i = 0; i < nx; ++i, kx += 1.0) {
      V p, dp;
      lane_bell(cx - (core.lx + kx * d.bw_), shx, p, dp);
      view.put(view.xp(i), p);
      view.put(view.xd(i), dp);
    }
    for (std::size_t j = 0; j < ny; ++j, ky += 1.0) {
      V p, dp;
      lane_bell(cy - (core.ly + ky * d.bh_), shy, p, dp);
      view.put(view.yp(j), p);
      view.put(view.yd(j), dp);
    }
    V norm{};
    for (std::size_t j = 0; j < ny; ++j) {
      V py;
      view.get(view.yp(j), py);
      for (std::size_t i = 0; i < nx; ++i) {
        V px;
        view.get(view.xp(i), px);
        norm += px * py;
      }
    }
    const V zero{};
    const V inv = norm > zero ? area / norm : zero;
    for (std::size_t l = 0; l < kN; ++l) d.foot_[var[l]].inv_norm = inv[l];
    // A cell spread nowhere is skipped by passes 1-2.
    std::uint64_t bins = 0;
    for (std::size_t k = 0; k < kN / 2; ++k) {
      if (d.foot_[s[k].a].inv_norm != 0.0) bins += std::uint64_t{nx} * ny;
      if (s[k].b != s[k].a && d.foot_[s[k].b].inv_norm != 0.0) {
        bins += std::uint64_t{nx} * ny;
      }
    }
    return bins;
  }

  template <class V>
  static std::uint64_t spread(const Spread& c, const Slot* s) {
    const CellShape& sh = c.d->shapes_[s->a];
    return with_extents(sh.nx, sh.ny, [&](auto nx, auto ny) {
      return spread<V>(c, s, nx, ny);
    });
  }

  /// Pass 0 over the slots of chunk k, two-lane. Each entry point has
  /// every kernel call inlined into it (flatten), the four-lane ones so
  /// that all of their code is compiled for AVX2.
  __attribute__((flatten)) static std::uint64_t spread_chunk_two(
      const Spread& c, std::size_t k) {
    const DensityPenalty& d = *c.d;
    std::uint64_t bins = 0;
    for (std::uint32_t s = d.chunk_slot_[k]; s < d.chunk_slot_[k + 1]; ++s) {
      bins += spread<Lanes>(c, &d.slots_[s]);
    }
    return bins;
  }

#if defined(__x86_64__)
  /// Pass 0 over the slots of chunk k: two slots with the same window
  /// per four-lane vector, a slot without such a neighbour two-lane.
  __attribute__((target("avx2"), flatten)) static std::uint64_t
  spread_chunk_four(const Spread& c, std::size_t k) {
    const DensityPenalty& d = *c.d;
    auto same_window = [&](const Slot& a, const Slot& b) {
      const CellShape& sa = d.shapes_[a.a];
      const CellShape& sb = d.shapes_[b.a];
      return sa.nx == sb.nx && sa.ny == sb.ny;
    };
    std::uint64_t bins = 0;
    const std::uint32_t last = d.chunk_slot_[k + 1];
    for (std::uint32_t s = d.chunk_slot_[k]; s < last;) {
      if (s + 1 < last && same_window(d.slots_[s], d.slots_[s + 1])) {
        bins += spread<util::Quad>(c, &d.slots_[s]);
        s += 2;
      } else {
        bins += spread<Lanes>(c, &d.slots_[s]);
        ++s;
      }
    }
    return bins;
  }
#else
  static std::uint64_t spread_chunk_four(const Spread& c, std::size_t k) {
    return spread_chunk_two(c, k);
  }
#endif

  /// Pass 1's split of the grid: value groups of whole bin rows, and
  /// blocks of whole groups.
  struct Blocks {
    std::size_t num_groups, rows_per_group, groups_per_block, rows_per_block;
  };

  /// Pass 1 for block b: adds every spread cell's bells into the block's
  /// rows, V-wide, then folds the block's groups of the penalty value and
  /// keeps 2 * error per bin for pass 2.
  template <class V>
  static void accumulate(const DensityPenalty& d, const Blocks& p,
                         std::size_t b) {
    const auto r0 = static_cast<long long>(b * p.rows_per_block);
    const auto r1 = std::min<long long>(
        static_cast<long long>(d.nb_),
        static_cast<long long>((b + 1) * p.rows_per_block));
    double* q = &d.scaled_rows_[b * d.nb_];
    for (const Footprint& f : d.foot_) {
      if (f.inv_norm == 0.0 || f.by1 < r0 || f.by0 >= r1) continue;
      with_extents(f.width(), f.height(), [&](auto nx, auto) {
        // The x-row scaled once per cell: inv_norm * px * py is evaluated
        // as (inv_norm * px) * py, so q[i] * py keeps the bits.
        for (std::size_t i = 0; i < nx; ++i) q[i] = f.inv_norm * f.xp[2 * i];
        const long long by_lo = std::max(f.by0, r0);
        const long long by_hi = std::min(f.by1, r1 - 1);
        for (long long by = by_lo; by <= by_hi; ++by) {
          add_row<V>(&d.density_[geom::bin_index(f.bx0, by, d.nb_)], q,
                     f.yp[2 * (by - f.by0)], nx);
        }
      });
    }
    // The block's rows are final now.
    const std::size_t g1 =
        std::min(p.num_groups, (b + 1) * p.groups_per_block);
    for (std::size_t g = b * p.groups_per_block; g < g1; ++g) {
      const std::size_t i0 = std::min(g * p.rows_per_group, d.nb_) * d.nb_;
      const std::size_t i1 =
          std::min((g + 1) * p.rows_per_group, d.nb_) * d.nb_;
      double value = 0.0;
      for (std::size_t i = i0; i < i1; ++i) {
        const double e = d.density_[i] - d.target_per_bin_;
        d.err2_[i] = 2.0 * e;
        value += e * e;
      }
      d.group_value_[g] = value;
    }
  }

  __attribute__((flatten)) static void accumulate_two(const DensityPenalty& d,
                                                     const Blocks& p,
                                                     std::size_t b) {
    accumulate<Lanes>(d, p, b);
  }

#if defined(__x86_64__)
  __attribute__((target("avx2"), flatten)) static void accumulate_four(
      const DensityPenalty& d, const Blocks& p, std::size_t b) {
    accumulate<util::Quad>(d, p, b);
  }
#else
  static void accumulate_four(const DensityPenalty& d, const Blocks& p,
                              std::size_t b) {
    accumulate_two(d, p, b);
  }
#endif
};

double DensityPenalty::eval(const netlist::Placement& pl, const VarMap& vars,
                            std::span<double> gx, std::span<double> gy,
                            double scale) const {
  return evaluate(pl, vars, util::widest_lanes(), gx, gy, scale);
}

double DensityPenalty::evaluate(const netlist::Placement& pl,
                                const VarMap& vars, util::LaneWidth width,
                                std::span<double> gx, std::span<double> gy,
                                double scale) const {
  const bool four = width == util::LaneWidth::kFour;
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
  const Kernels::Spread spread{this, &pl, movable};
  util::run(pool_.get(), chunk_bins_.size(), [&](std::size_t k) {
    chunk_bins_[k] = four ? Kernels::spread_chunk_four(spread, k)
                          : Kernels::spread_chunk_two(spread, k);
  });
  bins_visited_ = 0;
  for (const std::uint64_t bins : chunk_bins_) bins_visited_ += bins;

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
  Kernels::Blocks blocks;
  blocks.num_groups = std::min(nb_, kMaxValueGroups);
  blocks.rows_per_group = (nb_ + blocks.num_groups - 1) / blocks.num_groups;
  const std::size_t workers =
      std::min(kAccumBlocks, pool_ != nullptr ? pool_->size() : 1);
  blocks.groups_per_block = (blocks.num_groups + workers - 1) / workers;
  const std::size_t num_blocks =
      (blocks.num_groups + blocks.groups_per_block - 1) /
      blocks.groups_per_block;
  blocks.rows_per_block = blocks.rows_per_group * blocks.groups_per_block;
  scaled_rows_.resize(std::max(scaled_rows_.size(), num_blocks * nb_));

  group_value_.assign(blocks.num_groups, 0.0);

  util::run(pool_.get(), num_blocks, [&](std::size_t b) {
    if (four) {
      Kernels::accumulate_four(*this, blocks, b);
    } else {
      Kernels::accumulate_two(*this, blocks, b);
    }
  });
  double value = 0.0;
  for (const double v : group_value_) value += v;

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
      const SlotBells<Lanes, decltype(nx), decltype(ny)> view{
          {&bells_[slot.first]}, nx, ny};
      Lanes sx = {0.0, 0.0}, sy = {0.0, 0.0};
      for (std::size_t j = 0; j < ny; ++j) {
        const Lanes pyp = view[view.yp(j)];
        const Lanes pyd = view[view.yd(j)];
        const auto row = static_cast<long long>(j);
        const double* ea = &err2_[geom::bin_index(fa.bx0, fa.by0 + row, nb_)];
        const double* eb = &err2_[geom::bin_index(fb.bx0, fb.by0 + row, nb_)];
        for (std::size_t i = 0; i < nx; ++i) {
          // 2 * err * inv_norm * px * py, in that association.
          const Lanes e = Lanes{ea[i], eb[i]} * inv;
          sx += e * view[view.xd(i)] * pyp;
          sy += e * view[view.xp(i)] * pyd;
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
  return value;
}

double DensityPenalty::overflow(const netlist::Placement& pl,
                                const VarMap& vars,
                                double target_density) const {
  const auto& nl = *nl_;
  std::vector<double> usage = preload_;
  std::vector<double> col_w;
  for (const CellId c : vars.movable_cells()) {
    add_overlap(usage,
                geom::Rect::from_center(pl[c], nl.cell_width(c),
                                        nl.cell_height(c)),
                area_scale_[c], design_->core(), bw_, bh_, nb_, col_w);
  }

  const double cap = bw_ * bh_ * target_density;
  double over = 0.0;
  for (double u : usage) over += std::max(0.0, u - cap);
  return scaled_total_ > 0.0 ? over / scaled_total_ : 0.0;
}

}  // namespace dp::gp
