#include "gp/optimizer.hpp"

#include <algorithm>
#include <cmath>

namespace dp::gp {

namespace {

double inf_norm(std::span<const double> a) {
  double m = 0.0;
  for (double x : a) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace

const char* to_string(NesterovStop stop) {
  switch (stop) {
    case NesterovStop::kTolerance:
      return "tolerance";
    case NesterovStop::kIterationCap:
      return "iteration_cap";
    case NesterovStop::kNoDescent:
      return "no_descent";
  }
  return "unknown";
}

NesterovResult minimize_nesterov(Objective& objective,
                                 std::vector<double>& vars,
                                 const NesterovOptions& options) {
  NesterovResult result;
  const std::size_t n = vars.size();
  if (n == 0) {
    result.stop = NesterovStop::kNoDescent;
    return result;
  }

  // `vars` holds the reference point, the one evaluated; `major` the
  // major point, which is never evaluated.
  std::vector<double>& ref = vars;
  std::vector<double> major = ref;
  std::vector<double> grad(n, 0.0), prev_ref(n, 0.0), prev_grad(n, 0.0);

  double f = objective.eval(ref, grad);
  ++result.evaluations;
  double a = 1.0;  // Nesterov's momentum sequence; 1 means no momentum

  for (std::size_t iter = 0; iter < options.max_iters; ++iter) {
    ++result.iterations;
    const double gmax = inf_norm(grad);
    if (gmax == 0.0) {
      result.stop = NesterovStop::kNoDescent;
      break;
    }
    const double cap = kStepCap * options.step_ref / gmax;
    double step = options.step_ref / gmax;
    if (iter > 0) {
      double dv = 0.0, dg = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double x = ref[i] - prev_ref[i];
        const double y = grad[i] - prev_grad[i];
        dv += x * x;
        dg += y * y;
      }
      step = dg > 0.0 ? std::min(cap, std::sqrt(dv / dg)) : cap;
    }

    const double a_next = (1.0 + std::sqrt(4.0 * a * a + 1.0)) / 2.0;
    const double momentum = (a - 1.0) / a_next;
    prev_ref.swap(ref);
    prev_grad.swap(grad);
    for (std::size_t i = 0; i < n; ++i) {
      const double next = prev_ref[i] - step * prev_grad[i];
      ref[i] = next + momentum * (next - major[i]);
      major[i] = next;
    }

    // The caller's next evaluation is at the point the last iteration
    // reaches, so evaluating it here would be thrown away.
    if (result.iterations == options.max_iters) break;

    const double f_old = f;
    f = objective.eval(ref, grad);
    ++result.evaluations;
    if (f > f_old) {  // overshot: the next step is a plain gradient step
      ++result.restarts;
      a = 1.0;
    } else {
      a = a_next;
    }

    if (std::abs(f_old - f) <= options.rel_tol * (std::abs(f_old) + 1e-12)) {
      result.stop = NesterovStop::kTolerance;
      break;
    }
  }

  return result;
}

}  // namespace dp::gp
