#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gp/optimizer.hpp"
#include "util/prng.hpp"

namespace dp::gp {
namespace {

/// The value of `f` at `v`.
double value_at(Objective& f, std::span<const double> v) {
  std::vector<double> g(v.size());
  return f.eval(v, g);
}

/// f(x) = sum (x_i - t_i)^2 -- convex bowl with known minimum.
class Bowl final : public Objective {
 public:
  explicit Bowl(std::vector<double> target) : target_(std::move(target)) {}
  double eval(std::span<const double> v, std::span<double> g) override {
    double f = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double d = v[i] - target_[i];
      f += d * d;
      g[i] = 2 * d;
    }
    return f;
  }

 private:
  std::vector<double> target_;
};

/// 2-D Rosenbrock: the classic narrow-valley stress test.
class Rosenbrock final : public Objective {
 public:
  double eval(std::span<const double> v, std::span<double> g) override {
    const double x = v[0], y = v[1];
    const double f = 100 * (y - x * x) * (y - x * x) + (1 - x) * (1 - x);
    g[0] = -400 * x * (y - x * x) - 2 * (1 - x);
    g[1] = 200 * (y - x * x);
    return f;
  }
};

TEST(Nesterov, SolvesQuadraticBowl) {
  Bowl bowl({3.0, -2.0, 7.0});
  std::vector<double> v{0.0, 0.0, 0.0};
  NesterovOptions opt;
  opt.max_iters = 200;
  opt.step_ref = 1.0;
  opt.rel_tol = 1e-12;
  const NesterovResult res = minimize_nesterov(bowl, v, opt);
  EXPECT_NE(res.stop, NesterovStop::kIterationCap);
  EXPECT_NEAR(v[0], 3.0, 1e-3);
  EXPECT_NEAR(v[1], -2.0, 1e-3);
  EXPECT_NEAR(v[2], 7.0, 1e-3);
  EXPECT_NEAR(value_at(bowl, v), 0.0, 1e-5);
}

TEST(Nesterov, ReducesRosenbrock) {
  Rosenbrock f;
  std::vector<double> v{-1.2, 1.0};
  NesterovOptions opt;
  opt.max_iters = 500;
  opt.step_ref = 0.1;
  opt.rel_tol = 1e-14;
  const NesterovResult res = minimize_nesterov(f, v, opt);
  EXPECT_EQ(res.iterations, 500u);
  // One evaluation per point visited: none is evaluated and thrown away.
  EXPECT_LE(res.evaluations, res.iterations + 1);
  EXPECT_LT(value_at(f, v), 1.0);  // start value is ~24.2
}

TEST(Nesterov, EmptyProblemIsNoop) {
  Bowl bowl({});
  std::vector<double> v;
  const NesterovResult res = minimize_nesterov(bowl, v, {});
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_EQ(res.evaluations, 0u);
  EXPECT_EQ(res.stop, NesterovStop::kNoDescent);
}

TEST(Nesterov, AlreadyOptimalStopsQuickly) {
  Bowl bowl({1.0, 1.0});
  std::vector<double> v{1.0, 1.0};
  NesterovOptions opt;
  opt.max_iters = 100;
  const NesterovResult res = minimize_nesterov(bowl, v, opt);
  EXPECT_LE(res.iterations, 3u);
  EXPECT_NEAR(value_at(bowl, v), 0.0, 1e-12);
}

TEST(Nesterov, FirstStepMovesTheFastestCoordinateByStepRef) {
  // One iteration is one plain gradient step of length step_ref on the
  // fastest coordinate, taken without evaluating where it lands, so
  // repeated one-iteration runs walk down the bowl a unit at a time.
  Bowl bowl({5.0, 5.0, 5.0, 5.0});
  std::vector<double> v{0, 0, 0, 0};
  NesterovOptions opt;
  opt.max_iters = 1;
  double prev = 100.0;  // f(0) = 100
  for (int i = 0; i < 5; ++i) {
    const NesterovResult res = minimize_nesterov(bowl, v, opt);
    EXPECT_EQ(res.evaluations, 1u);
    const double f = value_at(bowl, v);
    EXPECT_LT(f, prev);
    prev = f;
  }
  EXPECT_EQ(v, (std::vector<double>{5.0, 5.0, 5.0, 5.0}));
}

/// f(x, y) = x^2 + 100 y^2 recording every value it returns: a narrow
/// valley across which the predicted step and the momentum overshoot.
class RecordingValley final : public Objective {
 public:
  double eval(std::span<const double> v, std::span<double> g) override {
    g[0] = 2 * v[0];
    g[1] = 200 * v[1];
    values.push_back(v[0] * v[0] + 100 * v[1] * v[1]);
    return values.back();
  }
  std::vector<double> values;
};

TEST(Nesterov, AnOvershootRestartsTheMomentum) {
  RecordingValley f;
  std::vector<double> v{10.0, 1.0};
  NesterovOptions opt;
  opt.max_iters = 200;
  opt.step_ref = 1.0;
  opt.rel_tol = 1e-12;
  const NesterovResult res = minimize_nesterov(f, v, opt);
  ASSERT_EQ(f.values.size(), res.evaluations);
  std::size_t rises = 0;
  for (std::size_t k = 1; k < f.values.size(); ++k) {
    if (f.values[k] > f.values[k - 1]) ++rises;
  }
  EXPECT_GT(rises, 0u);  // the valley makes the iterates overshoot
  EXPECT_EQ(res.restarts, rises);
  EXPECT_NE(res.stop, NesterovStop::kIterationCap);
  EXPECT_LT(f.values.back(), 1e-6);  // and the restarts still converge
}

/// f(x) = sum x_i^2 reporting the gradient's negation, so every step it
/// asks for goes uphill.
class UphillGradient final : public Objective {
 public:
  double eval(std::span<const double> v, std::span<double> g) override {
    double f = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      f += v[i] * v[i];
      g[i] = -2 * v[i];
    }
    return f;
  }
};

TEST(NesterovStop, ToleranceEndsTheRunBeforeTheCap) {
  // A unit step from 0 towards (100, 100) gains 2% of f, under rel_tol.
  Bowl bowl({100.0, 100.0});
  std::vector<double> v{0.0, 0.0};
  NesterovOptions opt;
  opt.step_ref = 1.0;
  opt.rel_tol = 0.05;
  const NesterovResult res = minimize_nesterov(bowl, v, opt);
  EXPECT_EQ(res.stop, NesterovStop::kTolerance);
  EXPECT_EQ(res.iterations, 1u);
  EXPECT_EQ(v, (std::vector<double>{1.0, 1.0}));
}

TEST(NesterovStop, IterationCapWhenStillImproving) {
  Rosenbrock f;
  std::vector<double> v{-1.2, 1.0};
  NesterovOptions opt;
  opt.max_iters = 5;
  opt.step_ref = 0.1;
  opt.rel_tol = 1e-14;
  const NesterovResult res = minimize_nesterov(f, v, opt);
  EXPECT_EQ(res.stop, NesterovStop::kIterationCap);
  EXPECT_EQ(res.iterations, 5u);
  EXPECT_EQ(res.evaluations, 5u);  // the fifth step lands unevaluated
}

TEST(NesterovStop, EveryRiseRestartsOnAnUphillGradient) {
  UphillGradient f;
  std::vector<double> v{1.0, -2.0};
  NesterovOptions opt;
  opt.max_iters = 5;
  const NesterovResult res = minimize_nesterov(f, v, opt);
  EXPECT_EQ(res.stop, NesterovStop::kIterationCap);
  EXPECT_EQ(res.restarts, 4u);  // every evaluated step but the unevaluated fifth
}

TEST(NesterovStop, NoDescentAtAStationaryPoint) {
  Bowl bowl({1.0, 1.0});
  std::vector<double> v{1.0, 1.0};
  const NesterovResult res = minimize_nesterov(bowl, v, {});
  EXPECT_EQ(res.stop, NesterovStop::kNoDescent);
  EXPECT_EQ(res.iterations, 1u);
  EXPECT_EQ(res.evaluations, 1u);
}

TEST(NesterovStop, NamesAreDistinct) {
  EXPECT_STREQ(to_string(NesterovStop::kTolerance), "tolerance");
  EXPECT_STREQ(to_string(NesterovStop::kIterationCap), "iteration_cap");
  EXPECT_STREQ(to_string(NesterovStop::kNoDescent), "no_descent");
}

// ---- 0-ulp reference -------------------------------------------------------
//
// minimize_nesterov as it was written first, three passes per iteration:
// max|g| in one index-order scan, the two squared distances in another,
// then a scalar update. The solver's one fused scan and two-lane update
// must visit the same points and stop the same way, bit for bit.
namespace reference {

double inf_norm(std::span<const double> a) {
  double m = 0.0;
  for (double x : a) m = std::max(m, std::abs(x));
  return m;
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
  std::vector<double>& ref = vars;
  std::vector<double> major = ref;
  std::vector<double> grad(n, 0.0), prev_ref(n, 0.0), prev_grad(n, 0.0);

  double f = objective.eval(ref, grad);
  ++result.evaluations;
  double a = 1.0;

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

    if (result.iterations == options.max_iters) break;

    const double f_old = f;
    f = objective.eval(ref, grad);
    ++result.evaluations;
    if (f > f_old) {
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

}  // namespace reference

/// A weighted bowl with a wavy coupling term, recording the bits of every
/// point it is evaluated at. Weights spread over four decades make the
/// momentum overshoot; every fifth gradient entry is +0 and every fifth
/// after it -0, so those coordinates never move.
class RecordingBumps final : public Objective {
 public:
  RecordingBumps(std::size_t n, std::uint64_t seed) : w_(n), t_(n) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      w_[i] = std::pow(10.0, rng.uniform(-2.0, 2.0));
      t_[i] = rng.uniform(-50.0, 50.0);
    }
  }
  double eval(std::span<const double> v, std::span<double> g) override {
    for (const double x : v) points.push_back(std::bit_cast<std::uint64_t>(x));
    const std::size_t n = v.size();
    double f = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = v[i] - t_[i];
      const double next = v[(i + 1) % n];
      f += w_[i] * d * d + std::sin(v[i]) * std::cos(next);
      g[i] = 2.0 * w_[i] * d + std::cos(v[i]) * std::cos(next);
      if (i % 5 == 0) g[i] = 0.0;
      if (i % 5 == 1) g[i] = -0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 5 < 2) continue;
      const std::size_t prev = (i + n - 1) % n;
      g[i] -= std::sin(v[prev]) * std::sin(v[i]);
    }
    return f;
  }
  std::vector<std::uint64_t> points;

 private:
  std::vector<double> w_, t_;
};

TEST(NesterovBitwise, MatchesTheThreePassLoop) {
  struct Case {
    std::size_t n;
    std::size_t max_iters;
    double rel_tol;
  };
  // Odd and even sizes, lone coordinates, caps that end a run, and
  // tolerances that end one first.
  const Case cases[] = {{1, 30, 1e-9},   {2, 30, 1e-9},    {3, 7, 1e-12},
                        {7, 50, 1e-6},   {8, 50, 1e-6},    {9, 4, 1e-12},
                        {101, 200, 1e-9}, {7868, 40, 3e-4}, {7869, 12, 1e-12}};
  std::size_t restarts = 0;
  bool stopped[kNumNesterovStops] = {};
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "n=" << c.n);
    NesterovOptions opt;
    opt.max_iters = c.max_iters;
    opt.rel_tol = c.rel_tol;
    opt.step_ref = 0.75;
    RecordingBumps f_ref(c.n, c.n), f_new(c.n, c.n);
    std::vector<double> v_ref(c.n);
    util::Rng rng(c.n + 1);
    for (double& x : v_ref) x = rng.uniform(-80.0, 80.0);
    std::vector<double> v_new = v_ref;
    const NesterovResult want = reference::minimize_nesterov(f_ref, v_ref, opt);
    const NesterovResult got = minimize_nesterov(f_new, v_new, opt);
    EXPECT_EQ(got.stop, want.stop);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.evaluations, want.evaluations);
    EXPECT_EQ(got.restarts, want.restarts);
    EXPECT_TRUE(f_new.points == f_ref.points) << "an evaluated point differs";
    ASSERT_EQ(v_new.size(), v_ref.size());
    for (std::size_t i = 0; i < c.n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(v_new[i]),
                std::bit_cast<std::uint64_t>(v_ref[i]))
          << "coordinate " << i;
    }
    restarts += want.restarts;
    stopped[static_cast<std::size_t>(want.stop)] = true;
  }
  // The cases reach the momentum restart and both ordinary stops.
  EXPECT_GT(restarts, 0u);
  EXPECT_TRUE(stopped[static_cast<std::size_t>(NesterovStop::kTolerance)]);
  EXPECT_TRUE(stopped[static_cast<std::size_t>(NesterovStop::kIterationCap)]);
}

TEST(NesterovBitwise, ZeroGradientStopsLikeTheThreePassLoop) {
  // Every gradient entry +-0 from the start: no step is taken.
  Bowl bowl({1.0, -2.0, 3.0, 0.5, -0.25});
  std::vector<double> v_ref{1.0, -2.0, 3.0, 0.5, -0.25};
  std::vector<double> v_new = v_ref;
  const NesterovResult want = reference::minimize_nesterov(bowl, v_ref, {});
  const NesterovResult got = minimize_nesterov(bowl, v_new, {});
  EXPECT_EQ(got.stop, NesterovStop::kNoDescent);
  EXPECT_EQ(got.stop, want.stop);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(v_new, v_ref);
}

}  // namespace
}  // namespace dp::gp
