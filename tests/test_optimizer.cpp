#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "gp/optimizer.hpp"

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

}  // namespace
}  // namespace dp::gp
