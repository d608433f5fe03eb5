#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "gp/vars.hpp"
#include "netlist/design.hpp"
#include "util/lanes.hpp"

namespace dp::util {
class ThreadPool;
}

namespace dp::gp {

/// Bell-shaped (NTUplace3/APlace-style) smooth density penalty.
///
/// The core is covered by a uniform bin grid. Each movable cell spreads a
/// smooth, differentiable potential over nearby bins, normalized so its
/// total contribution equals its area. The penalty is
///   N(x, y) = sum_b (D_b - M_b)^2
/// where D_b is the smoothed area in bin b and M_b the per-bin target
/// (movable area spread uniformly). Fixed cells inside the core contribute
/// their exact rectangle overlap to D_b as a constant preload.
///
/// An evaluation runs three deterministic passes:
///  - pass 0, per cell chunk: each cell's window, its x- and y-bells and
///    its normalization;
///  - pass 1: the smoothed density, accumulated over one multi-row block
///    per worker, at most kAccumBlocks; every bin row has exactly one
///    owning block, which adds contributions in ascending cell order, and
///    the value is summed over the same fixed row groups in the same order
///    for any block count;
///  - pass 2, the gradient: embarrassingly parallel over cells, each
///    writing its own variable, on the windows, bells and grid passes 0
///    and 1 left behind.
/// The cell chunks of passes 0 and 2 are fixed, so every pass's bits are
/// independent of the thread count; the block count is not, and need not
/// be. Pass 0 is the only one that evaluates a bell: it keeps each cell's
/// bells in bells_, and passes 1 and 2 read them from there.
///
/// The window rule: each cell spreads over a window of
/// ceil(w / bw) + 4 by ceil(h / bh) + 4 bins (one more where the ratio is
/// whole), fixed in the constructor and clamped into the grid, that
/// starts at the first bin where the bell or its slope is non-zero. It
/// holds every bin where they are non-zero, so every term of its other
/// bins is +-0, added to accumulators that are never -0: the result is
/// the bits of the untrimmed, floor-bounded windows. Fixed extents give
/// the loops fixed trip counts (compile-time ones for the common 5 x 5
/// window), and passes 0 and 2, whose cells are independent, visit the
/// cells by window shape and run two cells with the same window at once,
/// one per lane of a two-double vector, in each cell's own arithmetic.
/// Those pairs (slots_) are planned once in the constructor; a cell left
/// without a partner pairs with itself. Each pair keeps its bells
/// lane-interleaved, so both passes move whole vectors. The bell
/// constants and scaled areas are computed once per area scale, and
/// pass 1 stores twice each bin's error for pass 2 to read.
///
/// On an AVX2 host (util::widest_lanes()) pass 0 runs two consecutive
/// slots with the same window, four cells, per four-double vector, and
/// pass 1 adds four bins per vector; pass 2 stays two-wide. Passes 0 and 1
/// are written once over the vector type, so every lane does the same
/// arithmetic at either width and the bits do not depend on the host.
///
/// Every eval() runs all three passes: the term carries nothing from one
/// call to the next but its scratch and its work counters.
class DensityPenalty final : public ObjectiveTerm {
 public:
  DensityPenalty(const netlist::Netlist& nl, const netlist::Design& design,
                 std::size_t bins_per_side = 0 /* 0 = auto */);

  /// Attach a worker pool for parallel evaluation; null (the default)
  /// runs the same passes serially with identical results.
  void set_thread_pool(std::shared_ptr<util::ThreadPool> pool) {
    pool_ = std::move(pool);
  }

  /// Rebuild the fixed-area preload: every cell without a variable in
  /// `vars` -- the netlist's fixed cells -- contributes its exact
  /// rectangle overlap to the bins, so a fixed cell inside the core is an
  /// obstacle. Called by GlobalPlacer::place() before optimization.
  void preload_obstacles(const netlist::Placement& pl, const VarMap& vars);

  /// Per-cell area scaling for the density model (macro-shrink trick from
  /// mixed-size placement): cells that will legally pack solid -- datapath
  /// plate members -- contribute a reduced area, so a settled plate reads
  /// as exactly-at-target and the density force inside it vanishes instead
  /// of endlessly pushing the plate apart. The per-bin target is adjusted
  /// to the scaled total. `scale` is indexed by CellId; missing entries
  /// default to 1.
  void set_area_scale(std::vector<double> scale);

  /// The penalty value; adds `scale` times its gradient into gx/gy.
  double eval(const netlist::Placement& pl, const VarMap& vars,
              std::span<double> gx, std::span<double> gy,
              double scale = 1.0) const override;

  /// eval() with passes 0 and 1 on `width`-lane vectors; eval() takes
  /// util::widest_lanes(). Both widths give the same bits, which tests
  /// and benchmarks check through this entry. kFour needs an AVX2 host
  /// and falls back to kTwo in builds for other architectures.
  double evaluate(const netlist::Placement& pl, const VarMap& vars,
                  util::LaneWidth width, std::span<double> gx,
                  std::span<double> gy, double scale = 1.0) const;

  /// Hard-overflow metric: the fraction of movable area in bins above
  /// `target` density. Computed afresh from the *exact* cell rectangles on
  /// the same grid, not from the smoothed bells of eval().
  double overflow(const netlist::Placement& pl, const VarMap& vars,
                  double target_density) const;

  /// Deterministic work counter: the bins in the windows of the cells
  /// spread by the last evaluation (a cell spreads nowhere when its
  /// whole window lies beyond the bell). Pass 2 visits this many bins,
  /// pass 1 as many or more (a window may straddle two of its blocks).
  std::uint64_t bins_visited() const { return bins_visited_; }

  /// Deterministic work counter: the bell evaluations of an evaluation's
  /// pass 0, one per column and one per row of every cell's window, so the
  /// same for every placement. Passes 1 and 2 evaluate none.
  std::uint64_t bells_evaluated() const { return bells_per_eval_; }

  double bin_width() const { return bw_; }

 private:
  /// Passes 0 and 1 at both vector widths (density.cpp).
  struct Kernels;

  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  std::size_t nb_ = 0;
  double bw_ = 0.0, bh_ = 0.0;
  double target_per_bin_ = 0.0;
  std::vector<double> preload_;         ///< fixed-cell area per bin
  std::vector<double> area_scale_;      ///< per-cell density area factor
  mutable std::vector<double> density_;  ///< scratch: smoothed D_b

  std::shared_ptr<util::ThreadPool> pool_;

  /// A cell's window and where its bells are: its potentials at bin
  /// column bx0 + i and bin row by0 + j are xp[2 i] and yp[2 j], in
  /// bells_ (see Slot).
  struct Footprint {
    long long bx0, bx1, by0, by1;
    double inv_norm;
    const double* xp;
    const double* yp;
    std::size_t width() const {
      return static_cast<std::size_t>(bx1 - bx0 + 1);
    }
    std::size_t height() const {
      return static_cast<std::size_t>(by1 - by0 + 1);
    }
  };
  /// The constants of cells' bells on one axis, one cell per lane of V
  /// (a double for one cell): the inner and outer radii, the two parabola
  /// coefficients, and their slope factors.
  template <class V>
  struct BellLanes {
    V r1, r2, a, b;
    V m2a, b2;  ///< -2 a and 2 b
  };
  static BellLanes<double> bell_shape(double wc, double wb);

  /// What does not move with the cells, per variable: the window's
  /// columns and rows, and the scaled area.
  struct CellShape {
    std::uint32_t nx, ny;
    double area;
  };
  /// Two variables with the same window that passes 0 and 2 run in the
  /// two lanes of one vector, their bell constants {a's, b's}, and where
  /// their nx x-bells and ny y-bells start in bells_. A slot keeps
  /// 2 (nx + ny) vectors {a's, b's}: the x-potentials, the x-slopes, the
  /// y-potentials and the y-slopes, so a cell's potentials lie in every
  /// second double. A variable without a partner is a slot of its own
  /// (b == a): both lanes compute it, and its bins and its gradient count
  /// once.
  struct Slot {
    std::uint32_t a, b;
    std::uint32_t first;
    BellLanes<util::Lanes> x, y;
  };

  /// Per variable of the netlist's VarMap; the areas and their sum
  /// scaled_total_ (the overflow denominator) are refilled by every
  /// set_area_scale().
  std::vector<CellShape> shapes_;
  double scaled_total_ = 0.0;
  /// The slots of every pass-0/2 cell chunk: chunk k's are
  /// slots_[chunk_slot_[k] .. chunk_slot_[k + 1]). A chunk visits its
  /// variables by window shape (stable), so its cells mostly share one.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> chunk_slot_;
  /// The bells of every window, evaluated by every pass 0.
  std::uint64_t bells_per_eval_ = 0;

  // Per-evaluation scratch, persistent to keep allocation out of the hot
  // path (one evaluation in flight at a time).
  mutable std::vector<Footprint> foot_;
  mutable std::vector<util::Lanes> bells_;  ///< every slot's bells
  mutable std::vector<std::uint64_t> chunk_bins_;  ///< per pass-0 chunk
  mutable std::vector<double> group_value_;  ///< per value-group sums
  /// Pass 1's x-row scaled by the cell's normalization, one per block.
  mutable std::vector<double> scaled_rows_;
  /// 2 * error of every bin, written by pass 1 for pass 2.
  mutable std::vector<double> err2_;
  mutable std::uint64_t bins_visited_ = 0;
};

}  // namespace dp::gp
