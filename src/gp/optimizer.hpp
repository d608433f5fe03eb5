#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dp::gp {

/// A smooth function R^n -> R with gradient, minimized by the CG solver.
/// The line search calls value() on every probe and asks for the gradient
/// only once a probe is accepted, so a rejected probe costs no gradient.
class Objective {
 public:
  virtual ~Objective() = default;

  /// The value at `vars`, keeping what gradient() needs.
  virtual double value(std::span<const double> vars) = 0;

  /// Writes the gradient at the point of the most recent value() call
  /// into `grad` (overwrite, not accumulate).
  virtual void gradient(std::span<double> grad) = 0;
};

/// Armijo sufficient-decrease constant of the line search.
inline constexpr double kArmijoC1 = 1e-4;
/// Step halvings the line search tries before it gives up.
inline constexpr std::size_t kMaxBacktracks = 12;

struct CgOptions {
  std::size_t max_iters = 100;
  /// Stop when the objective improves by less than this relative amount
  /// over an iteration.
  double rel_tol = 1e-5;
  /// Reference trial-step length: the first line-search trial moves the
  /// fastest coordinate by this distance (typically one bin width).
  double step_ref = 1.0;
};

/// Why a minimize_cg run stopped.
enum class CgStop {
  kTolerance,         ///< an iteration improved f by less than `rel_tol`
  kIterationCap,      ///< `max_iters` iterations ran
  kLineSearchFailed,  ///< no Armijo step within kMaxBacktracks halvings
  kNoDescent,         ///< the gradient offers no descent direction
};
inline constexpr std::size_t kNumCgStops = 4;

/// Snake-case name of a stop reason, e.g. "iteration_cap".
const char* to_string(CgStop stop);

struct CgResult {
  CgStop stop = CgStop::kIterationCap;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  double final_value = 0.0;
  /// Probes of the Armijo backtracking loop (a subset of `evaluations`),
  /// each a value() call, and their cumulative wall time; feeds the
  /// line-search entry of gp::EvalProfile.
  std::size_t line_search_evals = 0;
  double line_search_seconds = 0.0;
  /// Gradients computed: one at the start plus one per accepted probe.
  /// Rejected probes cost a value only, so this is below `evaluations`
  /// whenever a probe was rejected.
  std::size_t gradient_evals = 0;
};

/// Polak-Ribiere+ nonlinear conjugate gradient with Armijo backtracking
/// line search and automatic restarts. `vars` is updated in place.
CgResult minimize_cg(Objective& objective, std::vector<double>& vars,
                     const CgOptions& options);

}  // namespace dp::gp
