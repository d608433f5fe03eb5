#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gp/vars.hpp"
#include "netlist/design.hpp"

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
/// Evaluation runs in three deterministic passes, split so that a line
/// search can reject a probe without paying for its gradient:
///  - value() runs pass 0 (per cell chunk: each cell's footprint, its x-
///    and y-bells and its normalization) and pass 1 (smoothed density,
///    accumulated over a few fixed multi-row blocks; every bin row has
///    exactly one owning block, which adds contributions in ascending cell
///    order -- no reduction races, bitwise identical to the serial loop);
///  - gradient() runs pass 2 (embarrassingly parallel over cells, each
///    writing its own variable) on the footprints, bells and grid the
///    preceding value() left behind.
/// Pass 0 is the only one that evaluates a bell: it keeps each cell's
/// bells in its chunk's storage, and passes 1 and 2 read them from there.
///
/// Work that cannot change a bit of the result is skipped: pass 0 trims
/// each footprint to the columns and rows where the bell or its slope is
/// non-zero (the dropped terms are all +-0, added to accumulators that are
/// never -0), the bell constants and scaled areas are computed once per
/// area scale, and pass 1 stores twice each bin's error for pass 2 to
/// read.
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

  /// value() followed by gradient(): returns the penalty and adds its
  /// gradient into gx/gy.
  double eval(const netlist::Placement& pl, const VarMap& vars,
              std::span<double> gx, std::span<double> gy) const override;

  /// Passes 0-1: the penalty value. Keeps the footprints, bells and per-bin
  /// errors for a following gradient() call.
  double value(const netlist::Placement& pl, const VarMap& vars) const;

  /// Pass 2: adds `scale` times the gradient at the placement of the most
  /// recent value() call into gx/gy, indexed like that call's VarMap.
  void gradient(std::span<double> gx, std::span<double> gy,
                double scale = 1.0) const;

  /// Hard-overflow metric: the fraction of movable area in bins above
  /// `target` density. Computed afresh from the *exact* cell rectangles on
  /// the same grid, not from the smoothed bells of value().
  double overflow(const netlist::Placement& pl, const VarMap& vars,
                  double target_density) const;

  /// Deterministic work counter: the bins covered by the (trimmed)
  /// footprints of the cells spread by the last value() call. Pass 1 and
  /// pass 2 each visit this many bins.
  std::uint64_t bins_visited() const { return bins_visited_; }

  /// Deterministic work counter: the bell evaluations of the last value()
  /// call, one per column and one per row of every untrimmed footprint.
  /// gradient() evaluates none.
  std::uint64_t bells_evaluated() const { return bells_evaluated_; }

  std::size_t bins_per_side() const { return nb_; }
  double bin_width() const { return bw_; }
  double bin_height() const { return bh_; }

 private:
  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  std::size_t nb_ = 0;
  double bw_ = 0.0, bh_ = 0.0;
  double target_per_bin_ = 0.0;
  std::vector<double> preload_;         ///< fixed-cell area per bin
  std::vector<double> area_scale_;      ///< per-cell density area factor
  mutable std::vector<double> density_;  ///< scratch: smoothed D_b

  std::shared_ptr<util::ThreadPool> pool_;

  /// One axis of a cell's bell potential at one bin.
  struct Bell {
    double p = 0.0;   ///< potential in [0, 1]
    double dp = 0.0;  ///< d(potential)/d(cell coordinate)
  };
  /// A cell's trimmed footprint and its bells there: px[i] is bin column
  /// bx0 + i, py[j] bin row by0 + j, both in its pass-0 chunk's storage.
  struct Footprint {
    long long bx0, bx1, by0, by1;
    double inv_norm;
    const Bell* px;
    const Bell* py;
  };
  /// The constants of one cell's bell on one axis: the inner and outer
  /// window radii and the two parabola coefficients.
  struct BellShape {
    double r1, r2, a, b;
  };
  static BellShape bell_shape(double wc, double wb);
  static Bell bell(double d, const BellShape& s);

  /// What does not move with the cells, per variable: the bell shapes on
  /// both axes and the scaled area.
  struct CellShape {
    BellShape x, y;
    double area;
  };

  /// What one pass-0 chunk of cells keeps and counts.
  struct Chunk {
    /// The chunk's bells, sized in the constructor for the widest windows
    /// its cells can have wherever they are.
    std::vector<Bell> bells;
    std::uint64_t bins = 0;
    std::uint64_t bell_calls = 0;
  };

  /// Per variable of the netlist's VarMap; the areas and their sum
  /// scaled_total_ (the overflow denominator) are refilled by every
  /// set_area_scale().
  std::vector<CellShape> shapes_;
  double scaled_total_ = 0.0;

  // Per-evaluation scratch, persistent to keep allocation out of the hot
  // path (one evaluation in flight at a time).
  mutable std::vector<Footprint> foot_;
  mutable std::vector<Chunk> chunks_;
  mutable std::vector<double> group_value_;  ///< per value-group sums
  mutable std::vector<std::vector<std::uint32_t>> block_cells_;
  /// Pass 1's x-row scaled by the cell's normalization, one per block.
  mutable std::vector<double> scaled_rows_;
  /// 2 * error of every bin, written by value() for gradient().
  mutable std::vector<double> err2_;
  mutable std::uint64_t bins_visited_ = 0;
  mutable std::uint64_t bells_evaluated_ = 0;
};

}  // namespace dp::gp
