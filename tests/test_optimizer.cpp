#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "gp/optimizer.hpp"

namespace dp::gp {
namespace {

/// An objective written as one full evaluation: value() runs eval() and
/// keeps its gradient, gradient() hands the kept copy out.
class WholeObjective : public Objective {
 public:
  /// Writes the full gradient into `g` and returns the value.
  virtual double eval(std::span<const double> v, std::span<double> g) = 0;

  double value(std::span<const double> v) final {
    kept_.resize(v.size());
    return eval(v, kept_);
  }
  void gradient(std::span<double> g) final {
    std::copy(kept_.begin(), kept_.end(), g.begin());
  }

 private:
  std::vector<double> kept_;
};

/// f(x) = sum (x_i - t_i)^2 -- convex bowl with known minimum.
class Bowl final : public WholeObjective {
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
class Rosenbrock final : public WholeObjective {
 public:
  double eval(std::span<const double> v, std::span<double> g) override {
    const double x = v[0], y = v[1];
    const double f = 100 * (y - x * x) * (y - x * x) + (1 - x) * (1 - x);
    g[0] = -400 * x * (y - x * x) - 2 * (1 - x);
    g[1] = 200 * (y - x * x);
    return f;
  }
};

/// Rosenbrock with value() and gradient() split the way CompositeObjective
/// splits them: value() computes f alone and remembers the point, and
/// gradient() computes the gradient there on demand.
class SplitRosenbrock final : public Objective {
 public:
  double value(std::span<const double> v) override {
    x_ = v[0];
    y_ = v[1];
    return 100 * (y_ - x_ * x_) * (y_ - x_ * x_) + (1 - x_) * (1 - x_);
  }
  void gradient(std::span<double> g) override {
    ++gradients;
    g[0] = -400 * x_ * (y_ - x_ * x_) - 2 * (1 - x_);
    g[1] = 200 * (y_ - x_ * x_);
  }
  std::size_t gradients = 0;

 private:
  double x_ = 0.0, y_ = 0.0;
};

TEST(Cg, SplitObjectiveMatchesEvalOnly) {
  CgOptions opt;
  opt.max_iters = 200;
  opt.step_ref = 0.1;
  opt.rel_tol = 1e-14;
  Rosenbrock whole;
  SplitRosenbrock split;
  std::vector<double> a{-1.2, 1.0}, b{-1.2, 1.0};
  const CgResult ra = minimize_cg(whole, a, opt);
  const CgResult rb = minimize_cg(split, b, opt);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(a[0]),
            std::bit_cast<std::uint64_t>(b[0]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a[1]),
            std::bit_cast<std::uint64_t>(b[1]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.final_value),
            std::bit_cast<std::uint64_t>(rb.final_value));
  EXPECT_EQ(ra.iterations, rb.iterations);
  EXPECT_EQ(ra.evaluations, rb.evaluations);
  EXPECT_EQ(ra.line_search_evals, rb.line_search_evals);
  EXPECT_EQ(ra.gradient_evals, rb.gradient_evals);

  // Rejected probes cost a value only: the split objective computed
  // exactly gradient_evals gradients, fewer than there were evaluations.
  EXPECT_EQ(split.gradients, rb.gradient_evals);
  EXPECT_LT(rb.gradient_evals, rb.evaluations);
  EXPECT_GT(rb.line_search_evals, rb.iterations);  // some probes rejected
}

TEST(Cg, SolvesQuadraticBowl) {
  Bowl bowl({3.0, -2.0, 7.0});
  std::vector<double> v{0.0, 0.0, 0.0};
  CgOptions opt;
  opt.max_iters = 200;
  opt.step_ref = 1.0;
  opt.rel_tol = 1e-12;
  const CgResult res = minimize_cg(bowl, v, opt);
  EXPECT_NEAR(v[0], 3.0, 1e-3);
  EXPECT_NEAR(v[1], -2.0, 1e-3);
  EXPECT_NEAR(v[2], 7.0, 1e-3);
  EXPECT_NEAR(res.final_value, 0.0, 1e-5);
}

TEST(Cg, ReducesRosenbrock) {
  Rosenbrock f;
  std::vector<double> v{-1.2, 1.0};
  CgOptions opt;
  opt.max_iters = 500;
  opt.step_ref = 0.1;
  opt.rel_tol = 1e-14;
  const CgResult res = minimize_cg(f, v, opt);
  EXPECT_LT(res.final_value, 1.0);  // start value is ~24.2
}

TEST(Cg, EmptyProblemIsNoop) {
  Bowl bowl({});
  std::vector<double> v;
  const CgResult res = minimize_cg(bowl, v, {});
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_EQ(res.stop, CgStop::kNoDescent);
}

TEST(Cg, AlreadyOptimalStopsQuickly) {
  Bowl bowl({1.0, 1.0});
  std::vector<double> v{1.0, 1.0};
  CgOptions opt;
  opt.max_iters = 100;
  const CgResult res = minimize_cg(bowl, v, opt);
  EXPECT_LE(res.iterations, 3u);
  EXPECT_NEAR(res.final_value, 0.0, 1e-12);
}

TEST(Cg, MonotoneNonIncreasing) {
  // The Armijo line search guarantees each accepted step decreases f.
  Bowl bowl({5.0, 5.0, 5.0, 5.0});
  std::vector<double> v{0, 0, 0, 0};
  CgOptions opt;
  opt.max_iters = 1;
  double prev = 100.0;  // f(0) = 100
  for (int i = 0; i < 20; ++i) {
    const CgResult res = minimize_cg(bowl, v, opt);
    EXPECT_LE(res.final_value, prev + 1e-12);
    prev = res.final_value;
  }
}

/// f(x) = sum x_i^2 reporting the gradient's negation, so every direction
/// it calls descent goes uphill.
class UphillGradient final : public WholeObjective {
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

TEST(CgStop, ToleranceEndsTheRunBeforeTheCap) {
  // A unit step from 0 towards (100, 100) gains 2% of f, under rel_tol.
  Bowl bowl({100.0, 100.0});
  std::vector<double> v{0.0, 0.0};
  CgOptions opt;
  opt.step_ref = 1.0;
  opt.rel_tol = 0.05;
  const CgResult res = minimize_cg(bowl, v, opt);
  EXPECT_EQ(res.stop, CgStop::kTolerance);
  EXPECT_EQ(res.iterations, 1u);
  EXPECT_EQ(v, (std::vector<double>{1.0, 1.0}));
}

TEST(CgStop, IterationCapWhenStillImproving) {
  Rosenbrock f;
  std::vector<double> v{-1.2, 1.0};
  CgOptions opt;
  opt.max_iters = 5;
  opt.step_ref = 0.1;
  opt.rel_tol = 1e-14;
  const CgResult res = minimize_cg(f, v, opt);
  EXPECT_EQ(res.stop, CgStop::kIterationCap);
  EXPECT_EQ(res.iterations, 5u);
}

TEST(CgStop, LineSearchFailsOnAnUphillGradient) {
  UphillGradient f;
  std::vector<double> v{1.0, -2.0};
  const CgResult res = minimize_cg(f, v, {});
  EXPECT_EQ(res.stop, CgStop::kLineSearchFailed);
  EXPECT_EQ(res.iterations, 1u);
  EXPECT_EQ(res.line_search_evals, kMaxBacktracks + 1);
  EXPECT_EQ(v, (std::vector<double>{1.0, -2.0}));  // no step taken
}

TEST(CgStop, NoDescentAtAStationaryPoint) {
  Bowl bowl({1.0, 1.0});
  std::vector<double> v{1.0, 1.0};
  const CgResult res = minimize_cg(bowl, v, {});
  EXPECT_EQ(res.stop, CgStop::kNoDescent);
  EXPECT_EQ(res.iterations, 1u);
  EXPECT_EQ(res.evaluations, 1u);
}

TEST(CgStop, NamesAreDistinct) {
  EXPECT_STREQ(to_string(CgStop::kTolerance), "tolerance");
  EXPECT_STREQ(to_string(CgStop::kIterationCap), "iteration_cap");
  EXPECT_STREQ(to_string(CgStop::kLineSearchFailed), "line_search_failed");
  EXPECT_STREQ(to_string(CgStop::kNoDescent), "no_descent");
}

TEST(Cg, CountsEvaluations) {
  Bowl bowl({2.0});
  std::vector<double> v{0.0};
  CgOptions opt;
  opt.max_iters = 10;
  const CgResult res = minimize_cg(bowl, v, opt);
  EXPECT_GE(res.evaluations, res.iterations);
}

}  // namespace
}  // namespace dp::gp
