#include "gp/optimizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>
#include <utility>

#include "util/lanes.hpp"

namespace dp::gp {

namespace {

using util::Lanes;

/// What an iteration reads of the last evaluation: the gradient's largest
/// magnitude and, when `deltas`, the squared distances from the previous
/// reference point and its gradient.
struct Scan {
  double gmax = 0.0;
  double dv = 0.0;
  double dg = 0.0;
};

/// One pass over the four vectors. max is exact in any order, so four
/// accumulators take max|g|; the two sums of squares stay the index-order
/// chains, one per lane of a vector.
Scan scan(const std::vector<double>& ref, const std::vector<double>& prev_ref,
          const std::vector<double>& grad,
          const std::vector<double>& prev_grad, bool deltas) {
  const std::size_t n = grad.size();
  std::array<double, 4> m{};
  Lanes sq = {0.0, 0.0};  // {dv, dg}
  auto add = [&](std::size_t i) {
    const Lanes d = {ref[i] - prev_ref[i], grad[i] - prev_grad[i]};
    sq += d * d;
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t k = 0; k < 4; ++k) {
      m[k] = std::max(m[k], std::abs(grad[i + k]));
    }
    if (deltas) {
      for (std::size_t k = 0; k < 4; ++k) add(i + k);
    }
  }
  for (; i < n; ++i) {
    m[0] = std::max(m[0], std::abs(grad[i]));
    if (deltas) add(i);
  }
  return {std::max(std::max(m[0], m[1]), std::max(m[2], m[3])), sq[0],
          sq[1]};
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
    const Scan sc = scan(ref, prev_ref, grad, prev_grad, iter > 0);
    if (sc.gmax == 0.0) {
      result.stop = NesterovStop::kNoDescent;
      break;
    }
    const double cap = kStepCap * options.step_ref / sc.gmax;
    double step = options.step_ref / sc.gmax;
    if (iter > 0) {
      step = sc.dg > 0.0 ? std::min(cap, std::sqrt(sc.dv / sc.dg)) : cap;
    }

    const double a_next = (1.0 + std::sqrt(4.0 * a * a + 1.0)) / 2.0;
    const double momentum = (a - 1.0) / a_next;
    prev_ref.swap(ref);
    prev_grad.swap(grad);
    // Two coordinates per vector, each in the scalar arithmetic.
    auto update = [](auto r, auto g, auto maj, auto s, auto mo) {
      const auto next = r - s * g;
      return std::pair{next + mo * (next - maj), next};
    };
    const Lanes step2 = {step, step}, momentum2 = {momentum, momentum};
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const auto [r, next] =
          update(util::load(&prev_ref[i]), util::load(&prev_grad[i]),
                 util::load(&major[i]), step2, momentum2);
      util::store(&ref[i], r);
      util::store(&major[i], next);
    }
    for (; i < n; ++i) {
      std::tie(ref[i], major[i]) =
          update(prev_ref[i], prev_grad[i], major[i], step, momentum);
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
