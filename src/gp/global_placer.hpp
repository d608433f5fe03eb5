#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "gp/density.hpp"
#include "gp/optimizer.hpp"
#include "gp/profile.hpp"
#include "gp/quadratic.hpp"
#include "gp/vars.hpp"
#include "gp/wirelength.hpp"
#include "netlist/design.hpp"

namespace dp::util {
class ThreadPool;
}

namespace dp::gp {

/// The overflow above which cells are still spreading out of the
/// quadratic start's pile-up. An outer iteration that starts above it
/// runs at most kSpreadInnerIters CG iterations: the next outer doubles
/// the density weight and reshapes the objective anyway. The structured
/// flow hands phase A to phase B here and inflates congested cells here.
inline constexpr double kSpreadOverflow = 0.5;
inline constexpr std::size_t kSpreadInnerIters = 10;

/// Options of one global-placement run: smooth wirelength plus a
/// two-sided density penalty (DensityPenalty) and any extra terms, over
/// one variable per movable cell. Fixed by the algorithm: at most 50 CG
/// iterations per outer iteration (kSpreadInnerIters while the outer
/// starts above kSpreadOverflow), stopped early by the first one that
/// improves the objective by less than 1e-4 relative, the overflow
/// measured against a bin capacity of density 1, and a density weight
/// starting at 2 times the ratio of the L1 wirelength and density gradient
/// norms at the start and doubling every outer iteration (ExtraTerm
/// weights follow the same rule with their own factor).
struct GpOptions {
  WirelengthModel wl_model = WirelengthModel::kWa;
  /// Stop once the hard density overflow is at or below this fraction.
  double stop_overflow = 0.08;
  std::size_t max_outer = 40;
  /// Wirelength smoothing: gamma in units of bin width, annealed
  /// geometrically from init at outer 0 to final at outer max_outer - 1
  /// (a run that stops earlier ends between the two).
  double gamma_init_bins = 6.0;
  double gamma_final_bins = 0.8;
  std::size_t bins_per_side = 0;  ///< 0 = auto from design size
};

/// One sample of the convergence trace (reconstructed Fig. 3 series): the
/// placement an outer iteration ended with, its schedule and its inner
/// CG run's work.
struct GpTracePoint {
  std::size_t outer = 0;
  double hpwl = 0.0;
  double overflow = 0.0;
  double lambda = 0.0;
  double gamma = 0.0;
  std::size_t cg_iterations = 0;
  std::size_t evaluations = 0;
  CgStop inner_stop = CgStop::kIterationCap;
};

/// Why a global-placement run stopped.
enum class GpStop {
  kOverflowReached,  ///< overflow fell to `stop_overflow`
  kOuterCap,         ///< `max_outer` outers ran, overflow still above
};

/// Snake-case name of a stop reason, e.g. "outer_cap".
const char* to_string(GpStop stop);

/// The record of one global placement, made by one GlobalPlacer::place
/// call or continued by several (see place()): the final values and stop
/// reason are the last run's, the trace and work cover them all.
struct GpResult {
  std::vector<GpTracePoint> trace;
  double final_hpwl = 0.0;
  double final_overflow = 0.0;
  GpStop stop_reason = GpStop::kOverflowReached;
  std::size_t total_cg_iterations = 0;
  std::size_t total_evaluations = 0;
  /// Per-term call counts and wall time of the evaluations.
  EvalProfile profile;
};

/// Scheduling context handed to the outer hook at the start of every
/// outer iteration: the run's outer index (counted from 0 in every
/// GlobalPlacer::place call) and the hard overflow it starts from.
struct TermContext {
  std::size_t outer = 0;
  double overflow = 1.0;
};

/// An additional objective term (e.g. the structure alignment penalty),
/// weighted by the density weight's rule: at outer 0, after the outer
/// hook, its base weight is `factor` times the ratio of the L1 wirelength
/// and term gradient norms (`factor` alone when the term's norm is 0),
/// and outer k uses base * 2^k.
struct ExtraTerm {
  const ObjectiveTerm* term = nullptr;
  double factor = 1.0;
  /// Label under which the term's evaluations are profiled.
  std::string name = "extra";
};

/// NTUplace3-style nonlinear analytical global placer:
///   minimize  WL_smooth(x) + lambda * Density(x) + sum_i w_i * Extra_i(x)
/// with conjugate gradient inner iterations and a geometric lambda ramp,
/// until the hard density overflow is below the stop threshold.
class GlobalPlacer {
 public:
  GlobalPlacer(const netlist::Netlist& nl, const netlist::Design& design,
               GpOptions options = {});

  /// Attach a worker pool for the wirelength and density kernels; null
  /// (the default) runs them serially. Results are bitwise identical for
  /// every pool size: the kernels use fixed chunk boundaries and ordered
  /// reductions.
  void set_thread_pool(std::shared_ptr<util::ThreadPool> pool);

  /// Register an extra objective term; must outlive place().
  void add_term(ExtraTerm term) { extras_.push_back(std::move(term)); }

  /// Callback invoked at the start of every outer iteration with the
  /// iteration's schedule (including the overflow it starts from), the
  /// current placement, and the wirelength and density terms it may
  /// retune. Timing-driven placement re-derives criticality net weights
  /// (SmoothWirelength::set_net_weight_scale); routability inflates
  /// congested cells (DensityPenalty::set_area_scale).
  using OuterHook =
      std::function<void(const TermContext&, const netlist::Placement&,
                         SmoothWirelength&, DensityPenalty&)>;
  void set_outer_hook(OuterHook hook) { outer_hook_ = std::move(hook); }

  /// Forward a per-cell density area scale (see DensityPenalty).
  void set_density_area_scale(std::vector<double> scale) {
    density_->set_area_scale(std::move(scale));
  }

  /// L1 gradient norms (wirelength, term) at the given placement; place()
  /// normalizes the density and extra-term weights against the wirelength
  /// force with them.
  std::pair<double, double> probe_norms(const ObjectiveTerm& term,
                                        const netlist::Placement& pl) const;

  const VarMap& vars() const { return vars_; }

  /// Run global placement; `pl` provides fixed-cell positions and the
  /// movable starting point, and receives the result. A fresh run
  /// (`so_far.trace` empty) starts from the quadratic placement; a run
  /// continuing `so_far`, the record of earlier runs on `pl`, starts from
  /// `pl` as given. The result is `so_far` with this run's outers
  /// appended (numbered on from its trace), its work added to the totals
  /// and profile, and its final values and stop reason.
  GpResult place(netlist::Placement& pl, GpResult so_far = {});

 private:
  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  GpOptions options_;
  VarMap vars_;
  std::unique_ptr<SmoothWirelength> wirelength_;
  std::unique_ptr<DensityPenalty> density_;
  std::vector<ExtraTerm> extras_;
  OuterHook outer_hook_;
};

}  // namespace dp::gp
