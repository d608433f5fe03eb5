#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "dpgen/benchmarks.hpp"
#include "geom/rect.hpp"
#include "gp/density.hpp"
#include "gp/global_placer.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace dp::gp {
namespace {

using netlist::CellId;
using netlist::Placement;

struct SmallDesign {
  SmallDesign() {
    dpgen::Generator gen("t", 9);
    auto a = gen.input_bus("a", 4);
    auto b = gen.input_bus("b", 4);
    gen.add_pipelined_adder("add", a, b, 1);
    bench.emplace(gen.finish());
  }
  std::optional<dpgen::Benchmark> bench;
};

// ---- 0-ulp reference -------------------------------------------------------
//
// A verbatim copy of the original DensityPenalty evaluation: every pass
// recomputes the x-bell of each (row, column) pair, pass 1 runs over
// min(nb, 64) one-group blocks, and the gradient is always computed. The
// optimized kernel must reproduce its value and gradient bit for bit.
namespace reference {

/// Chunk/block counts are fixed (independent of the thread count), so
/// every pass produces the same floating-point result for any pool size.
constexpr std::size_t kMaxParts = 64;
constexpr std::size_t kMinCellsPerChunk = 512;

/// Smallest power of two >= x (x >= 1).
std::size_t pow2_at_least(double x) {
  std::size_t p = 1;
  while (static_cast<double>(p) < x) p <<= 1;
  return p;
}

/// One axis of the bell-shaped potential and its signed derivative.
/// `d` is the signed distance cell-center minus bin-center; `wc` the cell
/// extent on this axis, `wb` the bin extent.
struct Bell {
  double p = 0.0;   ///< potential in [0, 1]
  double dp = 0.0;  ///< d(potential)/d(cell coordinate)
};

Bell bell(double d, double wc, double wb) {
  const double ad = std::abs(d);
  const double r1 = wc / 2.0 + wb;
  const double r2 = wc / 2.0 + 2.0 * wb;
  Bell out;
  if (ad <= r1) {
    const double a = 4.0 / ((wc + 2.0 * wb) * (wc + 4.0 * wb));
    out.p = 1.0 - a * ad * ad;
    out.dp = -2.0 * a * d;  // sign(d) * (-2 a |d|)
  } else if (ad <= r2) {
    const double b = 2.0 / (wb * (wc + 4.0 * wb));
    const double t = ad - r2;
    out.p = b * t * t;
    out.dp = 2.0 * b * t * (d >= 0.0 ? 1.0 : -1.0);
  }
  return out;
}

class DensityPenalty {
 public:
  DensityPenalty(const netlist::Netlist& nl, const netlist::Design& design,
                 std::size_t bins_per_side = 0);
  void set_thread_pool(std::shared_ptr<util::ThreadPool> pool) {
    pool_ = std::move(pool);
  }
  void preload_obstacles(const netlist::Placement& pl, const VarMap& vars);
  void set_area_scale(std::vector<double> scale);
  double eval(const netlist::Placement& pl, const VarMap& vars,
              std::span<double> gx, std::span<double> gy) const;

 private:
  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  std::size_t nb_ = 0;
  double bw_ = 0.0, bh_ = 0.0;
  double target_per_bin_ = 0.0;
  std::vector<double> preload_;
  std::vector<double> area_scale_;
  mutable std::vector<double> density_;
  std::shared_ptr<util::ThreadPool> pool_;
  mutable const VarMap* overflow_vars_ = nullptr;
  struct Footprint {
    long long bx0, bx1, by0, by1;
    double inv_norm;
  };
  mutable std::vector<Footprint> foot_;
  mutable std::vector<double> cell_gx_, cell_gy_;
  mutable std::vector<double> block_value_;
  mutable std::vector<std::vector<std::uint32_t>> block_cells_;
};

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
  target_per_bin_ = nl.movable_area() / static_cast<double>(nb_ * nb_);

  // Preload exact overlap of fixed cells that intrude into the core.
  preload_.assign(nb_ * nb_, 0.0);
  density_.assign(nb_ * nb_, 0.0);
  area_scale_.assign(nl.num_cells(), 1.0);
}

void DensityPenalty::preload_obstacles(const netlist::Placement& pl,
                                       const VarMap& vars) {
  preload_.assign(nb_ * nb_, 0.0);
  const geom::Rect& core = design_->core();
  const auto nbi = static_cast<long long>(nb_);
  for (CellId c = 0; c < nl_->num_cells(); ++c) {
    if (vars.var(c) != netlist::kInvalidId) continue;
    const geom::Rect r = geom::Rect::from_center(pl[c], nl_->cell_width(c),
                                                 nl_->cell_height(c));
    const auto bx0 = std::max<long long>(
        0, static_cast<long long>(std::floor((r.lx - core.lx) / bw_)));
    const auto bx1 = std::min<long long>(
        nbi - 1, static_cast<long long>(std::floor((r.hx - core.lx) / bw_)));
    const auto by0 = std::max<long long>(
        0, static_cast<long long>(std::floor((r.ly - core.ly) / bh_)));
    const auto by1 = std::min<long long>(
        nbi - 1, static_cast<long long>(std::floor((r.hy - core.ly) / bh_)));
    for (long long by = by0; by <= by1; ++by) {
      for (long long bx = bx0; bx <= bx1; ++bx) {
        const geom::Rect bin{core.lx + static_cast<double>(bx) * bw_,
                             core.ly + static_cast<double>(by) * bh_,
                             core.lx + static_cast<double>(bx + 1) * bw_,
                             core.ly + static_cast<double>(by + 1) * bh_};
        preload_[static_cast<std::size_t>(by) * nb_ +
                 static_cast<std::size_t>(bx)] += r.overlap_area(bin);
      }
    }
  }
}

void DensityPenalty::set_area_scale(std::vector<double> scale) {
  area_scale_ = std::move(scale);
  area_scale_.resize(nl_->num_cells(), 1.0);
  double scaled_total = 0.0;
  for (CellId c = 0; c < nl_->num_cells(); ++c) {
    if (!nl_->cell(c).fixed) {
      scaled_total += nl_->cell_area(c) * area_scale_[c];
    }
  }
  target_per_bin_ = scaled_total / static_cast<double>(nb_ * nb_);
  overflow_vars_ = nullptr;  // invalidate the cached overflow denominator
}

double DensityPenalty::eval(const netlist::Placement& pl, const VarMap& vars,
                            std::span<double> gx,
                            std::span<double> gy) const {
  const auto& nl = *nl_;
  const geom::Rect& core = design_->core();
  const auto nbi = static_cast<long long>(nb_);
  density_ = preload_;

  const auto movable = vars.movable_cells();
  const std::size_t n_mov = movable.size();
  foot_.resize(n_mov);

  // Fixed cell chunking shared by the footprint and gradient passes.
  const std::size_t cell_chunks =
      std::clamp<std::size_t>(n_mov / kMinCellsPerChunk, 1, kMaxParts);
  const std::size_t cells_per_chunk =
      n_mov > 0 ? (n_mov + cell_chunks - 1) / cell_chunks : 0;
  auto for_cells = [&](auto&& body) {
    if (n_mov == 0) return;
    auto task = [&](std::size_t k) {
      const std::size_t v1 =
          std::min(n_mov, (k + 1) * cells_per_chunk);
      for (std::size_t v = k * cells_per_chunk; v < v1; ++v) body(v);
    };
    if (pool_ != nullptr) {
      pool_->run(cell_chunks, task);
    } else {
      for (std::size_t k = 0; k < cell_chunks; ++k) task(k);
    }
  };

  // Pass 0: footprints and per-cell normalization (independent per cell).
  for_cells([&](std::size_t v) {
    const CellId c = movable[v];
    const double wc = nl.cell_width(c);
    const double hc = nl.cell_height(c);
    const double cx = pl[c].x;
    const double cy = pl[c].y;
    const double rx = wc / 2.0 + 2.0 * bw_;
    const double ry = hc / 2.0 + 2.0 * bh_;

    Footprint f;
    f.bx0 = std::max<long long>(
        0, static_cast<long long>(std::floor((cx - rx - core.lx) / bw_)));
    f.bx1 = std::min<long long>(
        nbi - 1, static_cast<long long>(std::floor((cx + rx - core.lx) / bw_)));
    f.by0 = std::max<long long>(
        0, static_cast<long long>(std::floor((cy - ry - core.ly) / bh_)));
    f.by1 = std::min<long long>(
        nbi - 1, static_cast<long long>(std::floor((cy + ry - core.ly) / bh_)));

    double norm = 0.0;
    for (long long by = f.by0; by <= f.by1; ++by) {
      const double bcy = core.ly + (static_cast<double>(by) + 0.5) * bh_;
      const Bell py = bell(cy - bcy, hc, bh_);
      if (py.p == 0.0) continue;
      for (long long bx = f.bx0; bx <= f.bx1; ++bx) {
        const double bcx = core.lx + (static_cast<double>(bx) + 0.5) * bw_;
        const Bell px = bell(cx - bcx, wc, bw_);
        norm += px.p * py.p;
      }
    }
    f.inv_norm = norm > 0.0 ? nl.cell_area(c) * area_scale_[c] / norm : 0.0;
    foot_[v] = f;
  });

  // Pass 1: accumulate smoothed density, partitioned by bin-row blocks.
  // Every bin row has exactly one owning block, which adds contributions
  // in ascending cell order -- the same order as a serial sweep, so the
  // grid is bitwise identical for any thread count, with no reduction.
  const std::size_t num_blocks = std::min(nb_, kMaxParts);
  const std::size_t rows_per_block = (nb_ + num_blocks - 1) / num_blocks;
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

  block_value_.assign(num_blocks, 0.0);

  auto block_task = [&](std::size_t b) {
    const auto r0 = static_cast<long long>(b * rows_per_block);
    const auto r1 = std::min<long long>(
        nbi, static_cast<long long>((b + 1) * rows_per_block));
    for (const std::uint32_t v : block_cells_[b]) {
      const Footprint& f = foot_[v];
      const CellId c = movable[v];
      const double wc = nl.cell_width(c);
      const double hc = nl.cell_height(c);
      const double cx = pl[c].x;
      const double cy = pl[c].y;
      const long long by_lo = std::max(f.by0, r0);
      const long long by_hi = std::min(f.by1, r1 - 1);
      for (long long by = by_lo; by <= by_hi; ++by) {
        const double bcy = core.ly + (static_cast<double>(by) + 0.5) * bh_;
        const Bell py = bell(cy - bcy, hc, bh_);
        if (py.p == 0.0) continue;
        for (long long bx = f.bx0; bx <= f.bx1; ++bx) {
          const double bcx = core.lx + (static_cast<double>(bx) + 0.5) * bw_;
          const Bell px = bell(cx - bcx, wc, bw_);
          density_[static_cast<std::size_t>(by) * nb_ +
                   static_cast<std::size_t>(bx)] += f.inv_norm * px.p * py.p;
        }
      }
    }
    // The block's rows are final now; fold its share of the penalty
    // value.
    double value = 0.0;
    const std::size_t i0 = static_cast<std::size_t>(r0) * nb_;
    const std::size_t i1 = static_cast<std::size_t>(r1) * nb_;
    for (std::size_t i = i0; i < i1; ++i) {
      const double e = density_[i] - target_per_bin_;
      value += e * e;
    }
    block_value_[b] = value;
  };
  if (pool_ != nullptr) {
    pool_->run(num_blocks, block_task);
  } else {
    for (std::size_t b = 0; b < num_blocks; ++b) block_task(b);
  }
  double value = 0.0;
  for (const double v : block_value_) value += v;

  // Pass 2: gradient via chain rule (normalization treated as constant,
  // the standard NTUplace approximation). Embarrassingly parallel over
  // cells into per-cell slots.
  cell_gx_.resize(n_mov);
  cell_gy_.resize(n_mov);
  for_cells([&](std::size_t v) {
    const Footprint& f = foot_[v];
    cell_gx_[v] = 0.0;
    cell_gy_[v] = 0.0;
    if (f.inv_norm == 0.0) return;
    const CellId c = movable[v];
    const double wc = nl.cell_width(c);
    const double hc = nl.cell_height(c);
    const double cx = pl[c].x;
    const double cy = pl[c].y;
    double gx_acc = 0.0, gy_acc = 0.0;
    for (long long by = f.by0; by <= f.by1; ++by) {
      const double bcy = core.ly + (static_cast<double>(by) + 0.5) * bh_;
      const Bell py = bell(cy - bcy, hc, bh_);
      for (long long bx = f.bx0; bx <= f.bx1; ++bx) {
        const double bcx = core.lx + (static_cast<double>(bx) + 0.5) * bw_;
        const Bell px = bell(cx - bcx, wc, bw_);
        const double err = density_[static_cast<std::size_t>(by) * nb_ +
                                    static_cast<std::size_t>(bx)] -
                           target_per_bin_;
        gx_acc += 2.0 * err * f.inv_norm * px.dp * py.p;
        gy_acc += 2.0 * err * f.inv_norm * px.p * py.dp;
      }
    }
    cell_gx_[v] = gx_acc;
    cell_gy_[v] = gy_acc;
  });

  // Ordered reduction into the variables (several cells may share one
  // variable in rigid-body mode, so this stays serial and in cell order).
  for (std::size_t v = 0; v < n_mov; ++v) {
    const std::uint32_t var = vars.var(movable[v]);
    gx[var] += cell_gx_[v];
    gy[var] += cell_gy_[v];
  }
  return value;
}

}  // namespace reference

// ---- fixtures for the 0-ulp comparison ----------------------------------------

/// make_scaled(4000) with a spread placement taken after 10 global
/// placement outer iterations, the state most density evaluations see.
struct Scaled4k {
  Scaled4k() : bench(dpgen::make_scaled(4000)) {
    GpOptions opt;
    opt.max_outer = 10;
    opt.stop_overflow = 0.0;
    GlobalPlacer gp(bench.netlist, bench.design, opt);
    spread = bench.placement;
    gp.place(spread);
  }
  dpgen::Benchmark bench;
  Placement spread;
};

const Scaled4k& scaled4k() {
  static const Scaled4k s;
  return s;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// One kernel configuration: the grid size plus what is applied to both
/// the reference and the kernel under test.
struct Setup {
  std::size_t bins = 0;
  bool area_scale = false;
};

/// The thread counts every kernel result is compared at. Pass 1 runs one
/// block per worker, so 3 and 5 split its 64 value groups unevenly.
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 5, 8};

/// Runs reference and kernel on (pl, vars) at every kThreadCounts, and
/// asserts value and gradient equal to the last bit -- through eval() and
/// through value() followed by gradient(). Gradients accumulate onto a
/// shared non-zero prefill, as the kernel's contract is +=.
void expect_bitwise(const dpgen::Benchmark& b, const Placement& pl,
                    const VarMap& vars, const Setup& setup,
                    const char* label) {
  const auto& nl = b.netlist;
  std::vector<double> scale;
  if (setup.area_scale) {
    util::Rng rng(5);
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      scale.push_back(rng.uniform(0.3, 1.0));
    }
  }
  reference::DensityPenalty ref(nl, b.design, setup.bins);
  if (setup.area_scale) ref.set_area_scale(scale);
  ref.preload_obstacles(pl, vars);

  const std::size_t n = vars.num_vars();
  std::vector<double> prefill(n);
  util::Rng rng(7);
  for (double& g : prefill) g = rng.uniform(-1.0, 1.0);
  std::vector<double> rgx = prefill, rgy = prefill;
  const double rv = ref.eval(pl, vars, rgx, rgy);

  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(std::string(label) + " threads=" + std::to_string(threads));
    DensityPenalty den(nl, b.design, setup.bins);
    if (setup.area_scale) den.set_area_scale(scale);
    den.set_thread_pool(std::make_shared<util::ThreadPool>(threads));
    den.preload_obstacles(pl, vars);

    std::vector<double> gx = prefill, gy = prefill;
    EXPECT_EQ(bits(den.eval(pl, vars, gx, gy)), bits(rv));
    std::vector<double> sx = prefill, sy = prefill;
    EXPECT_EQ(bits(den.value(pl, vars)), bits(rv));
    den.gradient(sx, sy, 1.0);
    std::size_t mismatches = 0;
    for (std::size_t v = 0; v < n; ++v) {
      mismatches += bits(gx[v]) != bits(rgx[v]) || bits(gy[v]) != bits(rgy[v]);
      mismatches += bits(sx[v]) != bits(rgx[v]) || bits(sy[v]) != bits(rgy[v]);
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(DensityBitwise, SpreadMidGpPlacement) {
  const Scaled4k& s = scaled4k();
  const VarMap vars(s.bench.netlist);
  expect_bitwise(s.bench, s.spread, vars, {}, "spread");
}

TEST(DensityBitwise, PiledPlacement) {
  const Scaled4k& s = scaled4k();
  const VarMap vars(s.bench.netlist);
  expect_bitwise(s.bench, s.bench.placement, vars, {}, "piled");
}

TEST(DensityBitwise, AreaScale) {
  const Scaled4k& s = scaled4k();
  const VarMap vars(s.bench.netlist);
  expect_bitwise(s.bench, s.spread, vars, {0, true}, "area-scale");
}

/// `b` with every odd-numbered cell fixed: at a spread placement, half the
/// cells are obstacles inside the core.
dpgen::Benchmark with_odd_cells_fixed(const dpgen::Benchmark& b) {
  dpgen::Benchmark fixed = b;
  netlist::NetlistSurgeon surgeon(fixed.netlist);
  for (CellId c = 1; c < fixed.netlist.num_cells(); c += 2) {
    surgeon.cell(c).fixed = true;
  }
  return fixed;
}

TEST(DensityBitwise, FixedCellsInCore) {
  const Scaled4k& s = scaled4k();
  const dpgen::Benchmark half = with_odd_cells_fixed(s.bench);
  const VarMap vars(half.netlist);
  ASSERT_GT(vars.num_vars(), 0u);
  ASSERT_LT(vars.num_vars(), s.bench.netlist.num_movable());
  expect_bitwise(half, s.spread, vars, {}, "fixed in core");
}

TEST(DensityBitwise, FineAndOddGrids) {
  const Scaled4k& s = scaled4k();
  const VarMap vars(s.bench.netlist);
  // 128 bins: two rows per value group. 100 bins: the last value groups
  // are empty. 5 bins: fewer groups than accumulation blocks.
  for (const std::size_t bins : {128u, 100u, 5u}) {
    expect_bitwise(s.bench, s.spread, vars, {bins, false},
                   ("bins=" + std::to_string(bins)).c_str());
  }
}

// ---- fixed windows -----------------------------------------------------------
//
// SmallDesign's core is 6.75 x 6; on a 16-bin grid the bin extents, bin
// centers, cell extents and bell radii are all short binary fractions, so
// positions built from them are exact.
constexpr std::size_t kEdgeBins = 16;

/// The fixed window extent of a cell `cell` wide on a kEdgeBins grid of
/// bins `bin` wide: floor(cell / bin) + 5 -- ceil(cell / bin) + 4 unless
/// cell / bin is whole, the most bin centers its bell's support of length
/// cell + 4 bin can hold -- at most the whole grid.
std::uint64_t window_extent(double cell, double bin) {
  return std::min<std::uint64_t>(
      kEdgeBins, static_cast<std::uint64_t>(std::floor(cell / bin)) + 5);
}

/// The bins of the fixed windows of the cells on a kEdgeBins grid.
std::uint64_t window_rule_bins(const dpgen::Benchmark& b, const VarMap& vars) {
  const geom::Rect& core = b.design.core();
  const double bw = core.width() / kEdgeBins;
  const double bh = core.height() / kEdgeBins;
  std::uint64_t bins = 0;
  for (const CellId c : vars.movable_cells()) {
    bins += window_extent(b.netlist.cell_width(c), bw) *
            window_extent(b.netlist.cell_height(c), bh);
  }
  return bins;
}

TEST(DensityBitwise, WindowEdgeOnBinCenter) {
  SmallDesign d;
  const dpgen::Benchmark& b = *d.bench;
  const auto& nl = b.netlist;
  const VarMap vars(nl);
  const geom::Rect& core = b.design.core();
  const double bw = core.width() / kEdgeBins;
  const double bh = core.height() / kEdgeBins;
  // Every cell's bell window ends exactly on a bin center (|d| == r2, the
  // one point inside the floor footprint where the bell and its slope
  // are 0), on its right or left and upper or lower side in turn.
  Placement pl = b.placement;
  std::size_t k = 0;
  for (const CellId c : vars.movable_cells()) {
    const double r2x = nl.cell_width(c) / 2.0 + 2.0 * bw;
    const double r2y = nl.cell_height(c) / 2.0 + 2.0 * bh;
    const double bcx =
        core.lx + (static_cast<double>(4 + k % 8) + 0.5) * bw;
    const double bcy =
        core.ly + (static_cast<double>(4 + (k / 2) % 8) + 0.5) * bh;
    pl[c] = {k % 2 == 0 ? bcx + r2x : bcx - r2x,
             k % 4 < 2 ? bcy + r2y : bcy - r2y};
    ASSERT_TRUE(pl[c].x >= core.lx && pl[c].x <= core.hx &&
                pl[c].y >= core.ly && pl[c].y <= core.hy);
    ++k;
  }
  expect_bitwise(b, pl, vars, {kEdgeBins, false}, "edge");
  expect_bitwise(b, pl, vars, {kEdgeBins, true}, "edge area-scale");

  // Every cell lies inside the core, so every cell spreads over its
  // whole window.
  DensityPenalty den(nl, b.design, kEdgeBins);
  den.value(pl, vars);
  EXPECT_EQ(den.bins_visited(), window_rule_bins(b, vars));
}

// Windows other than the 5 x 5 one take the kernel's generic path. On a
// 160-bin grid every make_scaled(4000) cell spans at least 6 bin rows. On
// a grid whose bins are exactly one row tall, every cell's support is a
// whole 5 bins tall and its window gets a sixth row; placing the lower
// end of a support exactly on a bin center puts its upper end exactly on
// one too.
TEST(DensityBitwise, GenericWindows) {
  const Scaled4k& s = scaled4k();
  const VarMap vars(s.bench.netlist);
  const double bh = s.bench.design.core().height() / 160.0;
  for (const CellId c : vars.movable_cells()) {
    ASSERT_GE(std::floor(s.bench.netlist.cell_height(c) / bh) + 5, 6.0);
  }
  expect_bitwise(s.bench, s.spread, vars, {160, false}, "bins=160");

  // One bin per row: every other cell's support starts on a bin center.
  const geom::Rect& core = s.bench.design.core();
  const double row = s.bench.design.row_height();
  const auto bins = static_cast<std::size_t>(core.height() / row);
  ASSERT_EQ(static_cast<double>(bins) * row, core.height());
  Placement pl = s.spread;
  std::size_t k = 0;
  for (const CellId c : vars.movable_cells()) {
    ASSERT_EQ(s.bench.netlist.cell_height(c), row);
    if (k++ % 2 == 1) continue;
    const double r2y = row / 2.0 + 2.0 * row;
    const double bin = std::floor((pl[c].y - r2y - core.ly) / row);
    pl[c].y = core.ly + (bin + 0.5) * row + r2y;
  }
  expect_bitwise(s.bench, pl, vars, {bins, false}, "one bin per row");
  expect_bitwise(s.bench, pl, vars, {bins, true}, "one bin per row, scaled");
}

TEST(DensityBitwise, CellsClippedAtCoreEdges) {
  SmallDesign d;
  const dpgen::Benchmark& b = *d.bench;
  const VarMap vars(b.netlist);
  const geom::Rect& core = b.design.core();
  const double bw = core.width() / kEdgeBins;
  const double bh = core.height() / kEdgeBins;
  const double mx = core.center().x, my = core.center().y;
  // Corners, edge midpoints, just outside each edge, and far outside
  // (an empty footprint, spread nowhere).
  const std::vector<geom::Point> spots = {
      {core.lx, core.ly},           {core.hx, core.ly},
      {core.lx, core.hy},           {core.hx, core.hy},
      {mx, core.ly},                {mx, core.hy},
      {core.lx, my},                {core.hx, my},
      {core.lx - 0.3 * bw, my},     {core.hx + 0.3 * bw, my + bh},
      {mx - bw, core.ly - 0.7 * bh}, {mx + bw, core.hy + 10.0 * bh}};
  Placement pl = b.placement;
  std::size_t k = 0;
  for (const CellId c : vars.movable_cells()) pl[c] = spots[k++ % spots.size()];
  expect_bitwise(b, pl, vars, {kEdgeBins, false}, "clipped");
  expect_bitwise(b, pl, vars, {kEdgeBins, true}, "clipped area-scale");
}

// Passes 0 and 2 pair the cells of one window within a chunk, and a cell
// left without a partner gets a slot of its own, with its own bell
// layout. Here one chunk's window shapes leave lone cells beside pairs:
// windows held by one cell, by three (a single pair and a lone cell) and
// by five.
TEST(DensityBitwise, LoneCellsAndPairTails) {
  using netlist::CellFunc;
  netlist::NetlistBuilder builder(netlist::standard_library());
  const std::pair<CellFunc, std::size_t> kinds[] = {{CellFunc::kInv, 1},
                                                    {CellFunc::kNand2, 3},
                                                    {CellFunc::kDff, 5},
                                                    {CellFunc::kFullAdder, 6}};
  for (const auto& [func, count] : kinds) {
    for (std::size_t i = 0; i < count; ++i) {
      builder.add_cell(
          std::string("c").append(std::to_string(builder.num_cells())),
          func);
    }
  }
  netlist::Netlist nl = builder.take();
  const netlist::Design design = netlist::Design::for_netlist(nl, 0.7);
  const dpgen::Benchmark b{"tails", std::move(nl), design, {}, {}};
  const VarMap vars(b.netlist);
  const geom::Rect& core = b.design.core();

  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> per_window;
  for (const CellId c : vars.movable_cells()) {
    ++per_window[{window_extent(b.netlist.cell_width(c),
                                core.width() / kEdgeBins),
                  window_extent(b.netlist.cell_height(c),
                                core.height() / kEdgeBins)}];
  }
  bool alone = false, three = false, odd_pairs = false;
  for (const auto& [window, cells] : per_window) {
    alone |= cells == 1;
    three |= cells == 3;
    odd_pairs |= cells > 3 && cells % 2 == 1;
  }
  ASSERT_TRUE(alone && three && odd_pairs)
      << per_window.size() << " window shapes";

  Placement pl(b.netlist.num_cells());
  util::Rng rng(17);
  for (auto& p : pl) {
    p = {rng.uniform(core.lx, core.hx), rng.uniform(core.ly, core.hy)};
  }
  expect_bitwise(b, pl, vars, {kEdgeBins, false}, "tails");
  expect_bitwise(b, pl, vars, {kEdgeBins, true}, "tails area-scale");
}

TEST(DensityBitwise, BinsVisitedIsThreadIndependent) {
  const Scaled4k& s = scaled4k();
  const VarMap vars(s.bench.netlist);
  std::uint64_t serial = 0;
  for (const std::size_t threads : kThreadCounts) {
    DensityPenalty den(s.bench.netlist, s.bench.design);
    den.set_thread_pool(std::make_shared<util::ThreadPool>(threads));
    den.value(s.spread, vars);
    if (threads == 1) serial = den.bins_visited();
    EXPECT_EQ(den.bins_visited(), serial) << "threads=" << threads;
  }
  EXPECT_GT(serial, 0u);
}

// ---- the line search's call order --------------------------------------------
//
// The line search calls value() at probes it may reject and gradient() only
// after the probe it accepts, so gradient() must see the last value() alone.

/// The reference value and gradient at (pl, vars), obstacles preloaded
/// from pl, gradients accumulated onto zeros.
struct Expected {
  double value = 0.0;
  std::vector<double> gx, gy;
};

Expected reference_eval(const dpgen::Benchmark& b, const Placement& pl,
                        const VarMap& vars) {
  reference::DensityPenalty ref(b.netlist, b.design);
  ref.preload_obstacles(pl, vars);
  Expected e;
  e.gx.assign(vars.num_vars(), 0.0);
  e.gy.assign(vars.num_vars(), 0.0);
  e.value = ref.eval(pl, vars, e.gx, e.gy);
  return e;
}

/// value() at `probe`, then value() and gradient() at `pl`, on `den` with
/// the obstacles of (pl, vars) preloaded: both must equal `want` bitwise.
void expect_after_probe(DensityPenalty& den, const Placement& probe,
                        const Placement& pl, const VarMap& vars,
                        const Expected& want) {
  den.preload_obstacles(pl, vars);
  den.value(probe, vars);
  EXPECT_EQ(bits(den.value(pl, vars)), bits(want.value));
  std::vector<double> gx(vars.num_vars(), 0.0), gy(vars.num_vars(), 0.0);
  den.gradient(gx, gy, 1.0);
  std::size_t mismatches = 0;
  for (std::size_t v = 0; v < gx.size(); ++v) {
    mismatches += bits(gx[v]) != bits(want.gx[v]) ||
                  bits(gy[v]) != bits(want.gy[v]);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(DensityBitwise, GradientAfterRejectedProbe) {
  const Scaled4k& s = scaled4k();
  const VarMap vars(s.bench.netlist);
  const Expected want = reference_eval(s.bench, s.spread, vars);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DensityPenalty den(s.bench.netlist, s.bench.design);
    den.set_thread_pool(std::make_shared<util::ThreadPool>(threads));
    expect_after_probe(den, s.bench.placement, s.spread, vars, want);
  }
}

TEST(Density, ValueNonNegativeAndFinite) {
  SmallDesign d;
  const auto& nl = d.bench->netlist;
  VarMap vars(nl);
  DensityPenalty den(nl, d.bench->design, 16);
  Placement pl = d.bench->placement;
  std::vector<double> gx(vars.num_vars(), 0.0), gy(vars.num_vars(), 0.0);
  const double v = den.eval(pl, vars, gx, gy);
  EXPECT_GE(v, 0.0);
  EXPECT_TRUE(std::isfinite(v));
}

TEST(Density, PiledPlacementWorseThanSpread) {
  SmallDesign d;
  const auto& nl = d.bench->netlist;
  const auto& design = d.bench->design;
  VarMap vars(nl);
  DensityPenalty den(nl, design, 16);
  std::vector<double> gx(vars.num_vars(), 0.0), gy(vars.num_vars(), 0.0);

  Placement piled = d.bench->placement;  // everything at the center
  const double v_piled = den.eval(piled, vars, gx, gy);

  Placement spread = piled;
  util::Rng rng(3);
  const geom::Rect& core = design.core();
  for (const CellId c : vars.movable_cells()) {
    spread[c] = {rng.uniform(core.lx, core.hx),
                 rng.uniform(core.ly, core.hy)};
  }
  gx.assign(vars.num_vars(), 0.0);
  gy.assign(vars.num_vars(), 0.0);
  const double v_spread = den.eval(spread, vars, gx, gy);
  EXPECT_LT(v_spread, v_piled);
}

TEST(Density, GradientMatchesFiniteDifference) {
  SmallDesign d;
  const auto& nl = d.bench->netlist;
  VarMap vars(nl);
  DensityPenalty den(nl, d.bench->design, 16);
  Placement pl = d.bench->placement;
  util::Rng rng(11);
  const geom::Rect& core = d.bench->design.core();
  for (const CellId c : vars.movable_cells()) {
    pl[c] = {rng.uniform(core.lx + 1, core.hx - 1),
             rng.uniform(core.ly + 1, core.hy - 1)};
  }
  const std::size_t n = vars.num_vars();
  std::vector<double> gx(n, 0.0), gy(n, 0.0);
  den.eval(pl, vars, gx, gy);

  std::vector<double> dump_x(n), dump_y(n);
  const double h = 1e-5;
  for (std::size_t v = 0; v < std::min<std::size_t>(n, 8); ++v) {
    const CellId c = vars.cell(v);
    const double y0 = pl[c].y;
    pl[c].y = y0 + h;
    dump_x.assign(n, 0.0);
    dump_y.assign(n, 0.0);
    const double fp = den.eval(pl, vars, dump_x, dump_y);
    pl[c].y = y0 - h;
    dump_x.assign(n, 0.0);
    dump_y.assign(n, 0.0);
    const double fm = den.eval(pl, vars, dump_x, dump_y);
    pl[c].y = y0;
    const double fd = (fp - fm) / (2 * h);
    // The analytic gradient treats the per-cell normalization as constant
    // (the standard approximation), so allow a few percent slack.
    EXPECT_NEAR(gx.size() ? gy[v] : 0.0, fd,
                std::max(0.05 * std::abs(fd), 0.05));
  }
}

TEST(Density, OverflowZeroForUniformSpread) {
  SmallDesign d;
  const auto& nl = d.bench->netlist;
  const auto& design = d.bench->design;
  VarMap vars(nl);
  DensityPenalty den(nl, design, 8);
  // Place cells on a regular grid: low local density everywhere.
  Placement pl = d.bench->placement;
  const geom::Rect& core = design.core();
  const auto movable = vars.movable_cells();
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(movable.size()))));
  for (std::size_t i = 0; i < movable.size(); ++i) {
    const double fx = (static_cast<double>(i % side) + 0.5) /
                      static_cast<double>(side);
    const double fy = (static_cast<double>(i / side) + 0.5) /
                      static_cast<double>(side);
    pl[movable[i]] = {core.lx + fx * core.width(),
                      core.ly + fy * core.height()};
  }
  EXPECT_LT(den.overflow(pl, vars, 1.0), 0.05);
}

TEST(Density, OverflowHighForPile) {
  SmallDesign d;
  VarMap vars(d.bench->netlist);
  DensityPenalty den(d.bench->netlist, d.bench->design, 8);
  const Placement pl = d.bench->placement;  // piled at center
  EXPECT_GT(den.overflow(pl, vars, 1.0), 0.5);
}

TEST(Density, AreaScaleReducesContribution) {
  SmallDesign d;
  const auto& nl = d.bench->netlist;
  VarMap vars(nl);
  DensityPenalty den(nl, d.bench->design, 8);
  const Placement pl = d.bench->placement;
  const double before = den.overflow(pl, vars, 1.0);
  std::vector<double> scale(nl.num_cells(), 0.5);
  den.set_area_scale(scale);
  // Same pile but every cell counts half: same relative overflow ratio,
  // but the absolute overflowing area halves; the normalized metric uses
  // the scaled total, so the value stays comparable (not larger).
  EXPECT_LE(den.overflow(pl, vars, 1.0), before + 1e-9);
}

TEST(Density, PreloadObstaclesBlocksBins) {
  SmallDesign d;
  // Fix every cell where the design piles them, inside the core.
  netlist::Netlist nl = d.bench->netlist;
  netlist::NetlistSurgeon surgeon(nl);
  for (CellId c = 0; c < nl.num_cells(); ++c) surgeon.cell(c).fixed = true;
  const VarMap frozen(nl);
  EXPECT_EQ(frozen.num_vars(), 0u);
  DensityPenalty den(nl, d.bench->design, 8);
  den.preload_obstacles(d.bench->placement, frozen);
  // All the pile is now preload against a 0 target. overflow() with no
  // movable cells returns 0 by definition; instead the penalty value must
  // reflect the preloaded pile.
  std::vector<double> gx, gy;
  const double v = den.eval(d.bench->placement, frozen, gx, gy);
  EXPECT_GT(v, 0.0);
}

}  // namespace
}  // namespace dp::gp
