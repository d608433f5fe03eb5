#include "gp/optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "util/timer.hpp"

namespace dp::gp {

namespace {

double dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double inf_norm(std::span<const double> a) {
  double m = 0.0;
  for (double x : a) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace

const char* to_string(CgStop stop) {
  switch (stop) {
    case CgStop::kTolerance:
      return "tolerance";
    case CgStop::kIterationCap:
      return "iteration_cap";
    case CgStop::kLineSearchFailed:
      return "line_search_failed";
    case CgStop::kNoDescent:
      return "no_descent";
  }
  return "unknown";
}

CgResult minimize_cg(Objective& objective, std::vector<double>& vars,
                     const CgOptions& options) {
  CgResult result;
  const std::size_t n = vars.size();
  if (n == 0) {
    result.stop = CgStop::kNoDescent;
    return result;
  }

  std::vector<double> grad(n, 0.0), prev_grad(n, 0.0), dir(n, 0.0);
  std::vector<double> trial(n, 0.0);

  double f = objective.value(vars);
  objective.gradient(grad);
  ++result.evaluations;
  ++result.gradient_evals;
  for (std::size_t i = 0; i < n; ++i) dir[i] = -grad[i];

  for (std::size_t iter = 0; iter < options.max_iters; ++iter) {
    ++result.iterations;

    double g_dot_d = dot(grad, dir);
    if (g_dot_d >= 0.0) {
      // Not a descent direction: restart with steepest descent.
      for (std::size_t i = 0; i < n; ++i) dir[i] = -grad[i];
      g_dot_d = dot(grad, dir);
      if (g_dot_d >= 0.0) {  // gradient is ~zero
        result.stop = CgStop::kNoDescent;
        break;
      }
    }

    const double dmax = inf_norm(dir);
    if (dmax == 0.0) {
      result.stop = CgStop::kNoDescent;
      break;
    }
    double alpha = options.step_ref / dmax;

    // Armijo backtracking.
    double f_new = f;
    bool accepted = false;
    const util::Timer ls_timer;
    for (std::size_t bt = 0; bt <= kMaxBacktracks; ++bt) {
      for (std::size_t i = 0; i < n; ++i) trial[i] = vars[i] + alpha * dir[i];
      f_new = objective.value(trial);
      ++result.evaluations;
      ++result.line_search_evals;
      if (f_new <= f + kArmijoC1 * alpha * g_dot_d) {
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    result.line_search_seconds += ls_timer.seconds();
    if (!accepted) {  // gradient likely noisy
      result.stop = CgStop::kLineSearchFailed;
      break;
    }

    // Only the accepted probe pays for its gradient.
    objective.gradient(prev_grad);
    ++result.gradient_evals;
    vars.swap(trial);
    std::swap(grad, prev_grad);  // prev_grad now holds the OLD gradient
    const double f_old = f;
    f = f_new;

    // prev_grad = old gradient, grad = new gradient (from the accepted
    // trial evaluation above).
    double beta_num = 0.0, beta_den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      beta_num += grad[i] * (grad[i] - prev_grad[i]);
      beta_den += prev_grad[i] * prev_grad[i];
    }
    const double beta =
        beta_den > 0.0 ? std::max(0.0, beta_num / beta_den) : 0.0;
    for (std::size_t i = 0; i < n; ++i) dir[i] = -grad[i] + beta * dir[i];

    if (std::abs(f_old - f) <= options.rel_tol * (std::abs(f_old) + 1e-12)) {
      result.stop = CgStop::kTolerance;
      break;
    }
  }

  result.final_value = f;
  return result;
}

}  // namespace dp::gp
