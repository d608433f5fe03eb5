#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dp::gp {

/// A smooth function R^n -> R with gradient, minimized by the Nesterov
/// solver. The solver calls value() and then gradient() at every point
/// it evaluates.
class Objective {
 public:
  virtual ~Objective() = default;

  /// The value at `vars`, keeping what gradient() needs.
  virtual double value(std::span<const double> vars) = 0;

  /// Writes the gradient at the point of the most recent value() call
  /// into `grad` (overwrite, not accumulate).
  virtual void gradient(std::span<double> grad) = 0;
};

/// The predicted step never moves a coordinate further than this many
/// `step_ref` along the gradient.
inline constexpr double kStepCap = 2.0;

struct NesterovOptions {
  std::size_t max_iters = 100;
  /// Stop when the objective changes by less than this relative amount
  /// over an iteration.
  double rel_tol = 1e-5;
  /// Reference step length: the first step moves the fastest coordinate
  /// by this distance (typically one bin width), and no predicted step
  /// moves it by more than kStepCap times it.
  double step_ref = 1.0;
};

/// Why a minimize_nesterov run stopped.
enum class NesterovStop {
  kTolerance,     ///< an iteration changed f by less than `rel_tol`
  kIterationCap,  ///< `max_iters` iterations ran
  kNoDescent,     ///< the gradient is zero
};
inline constexpr std::size_t kNumNesterovStops = 3;

/// Snake-case name of a stop reason, e.g. "iteration_cap".
const char* to_string(NesterovStop stop);

struct NesterovResult {
  NesterovStop stop = NesterovStop::kIterationCap;
  std::size_t iterations = 0;
  /// value() calls, each followed by one gradient() call: one at the
  /// start and one after every iteration but a last one that reaches
  /// `max_iters`, since the caller evaluates that point next.
  std::size_t evaluations = 0;
  /// Iterations whose objective rose and which therefore dropped the
  /// momentum.
  std::size_t restarts = 0;
};

/// Nesterov's accelerated gradient method. Each iteration takes a
/// gradient step from the reference point to the next major point, with
/// the step predicted from the last two reference points (their distance
/// over their gradients' distance, the inverse of a local Lipschitz
/// constant), and extrapolates the next reference point past it. An
/// iteration whose value rises restarts the momentum. `vars` receives the
/// last reference point.
NesterovResult minimize_nesterov(Objective& objective,
                                 std::vector<double>& vars,
                                 const NesterovOptions& options);

}  // namespace dp::gp
