// The in-process A/B harness that scripts/kernel_ab.py builds: one GP
// layer of the working tree against a parent's copy of it, renamed into
// dp::gp::parent, in one binary. Each round runs `calls` calls on one side
// and then on the other, the order swapped every round, and prints
//   round R PARENT_SECONDS WORK_SECONDS
// After the rounds it compares the two sides' outputs and prints
//   bitwise 1            (every output bit-equal), or
//   bitwise 0 MAXREL     (the largest relative difference).
//
// Exactly one of KERNEL_AB_OPTIMIZER, KERNEL_AB_DENSITY and
// KERNEL_AB_WIRELENGTH is defined by the build.
//   optimizer:  minimize_nesterov, 50 iterations on a synthetic objective
//               of 7,868 variables (the variables of make_scaled(4000));
//               a side's time is the solver's own, outside evaluations.
//   density:    DensityPenalty::eval() on bench_micro_kernels' spread
//               fixture, make_scaled(4000) after 9 outer iterations.
//   wirelength: SmoothWirelength::eval() on the same fixture, at the
//               gamma of its last outer iteration.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#if defined(KERNEL_AB_OPTIMIZER)
#include "gp/optimizer.hpp"
#include "parent/gp/optimizer.hpp"
#include "util/prng.hpp"
#else
#include "dpgen/benchmarks.hpp"
#include "gp/global_placer.hpp"
#include "util/logger.hpp"
#if defined(KERNEL_AB_DENSITY)
#include "gp/density.hpp"
#include "parent/gp/density.hpp"
#elif defined(KERNEL_AB_WIRELENGTH)
#include "gp/wirelength.hpp"
#include "parent/gp/wirelength.hpp"
#endif
#endif

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// 0 when `a` and `b` hold the same bits, else their largest relative
/// difference, at least the smallest double (+0 against -0 differs too).
double max_rel_diff(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return INFINITY;
  bool differs = false;
  double worst = std::numeric_limits<double>::denorm_min();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) ==
        std::bit_cast<std::uint64_t>(b[i])) {
      continue;
    }
    differs = true;
    const double scale = std::max(std::abs(a[i]), std::abs(b[i]));
    const double rel = scale > 0.0 ? std::abs(a[i] - b[i]) / scale : 0.0;
    if (!(rel <= worst)) worst = rel;  // a NaN sticks
  }
  return differs ? worst : 0.0;
}

#if defined(KERNEL_AB_OPTIMIZER)

constexpr std::size_t kVars = 7868;
constexpr std::size_t kIters = 50;

/// A weighted bowl with a chain coupling, cheap enough that the solver's
/// own passes are a large share of a run: f = sum w_i (x_i - t_i)^2 +
/// sum (x_i - x_{i+1})^2 / 4. It records the time spent in it.
template <class Base>
class Synthetic final : public Base {
 public:
  Synthetic() : w_(kVars), t_(kVars) {
    dp::util::Rng rng(17);
    for (std::size_t i = 0; i < kVars; ++i) {
      w_[i] = std::pow(10.0, rng.uniform(-1.0, 1.0));
      t_[i] = rng.uniform(0.0, 500.0);
    }
  }
  double eval(std::span<const double> v, std::span<double> g) override {
    const auto t0 = Clock::now();
    double f = 0.0;
    for (std::size_t i = 0; i < kVars; ++i) {
      const double d = v[i] - t_[i];
      f += w_[i] * d * d;
      g[i] = 2.0 * w_[i] * d;
    }
    for (std::size_t i = 0; i + 1 < kVars; ++i) {
      const double c = v[i] - v[i + 1];
      f += 0.25 * c * c;
      g[i] += 0.5 * c;
      g[i + 1] -= 0.5 * c;
    }
    seconds += seconds_since(t0);
    return f;
  }
  double seconds = 0.0;

 private:
  std::vector<double> w_, t_;
};

/// One side: `calls` runs of its minimize_nesterov from one start point.
template <class Ns>
struct Side {
  Synthetic<typename Ns::Objective> objective;
  std::vector<double> start, vars;
  std::vector<double> record;  ///< per run: iterations, evaluations, restarts

  double run(std::size_t calls) {
    typename Ns::NesterovOptions opt;
    opt.max_iters = kIters;
    opt.rel_tol = 1e-12;
    opt.step_ref = 4.0;
    const double evals_before = objective.seconds;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < calls; ++c) {
      vars = start;
      const auto res = Ns::minimize(objective, vars, opt);
      record.push_back(static_cast<double>(res.iterations));
      record.push_back(static_cast<double>(res.evaluations));
      record.push_back(static_cast<double>(res.restarts));
    }
    return seconds_since(t0) - (objective.seconds - evals_before);
  }
  std::vector<double> outputs() const {
    std::vector<double> out = vars;
    out.insert(out.end(), record.begin(), record.end());
    return out;
  }
};

struct Work {
  using Objective = dp::gp::Objective;
  using NesterovOptions = dp::gp::NesterovOptions;
  static auto minimize(Objective& f, std::vector<double>& v,
                       const NesterovOptions& o) {
    return dp::gp::minimize_nesterov(f, v, o);
  }
};
struct Parent {
  using Objective = dp::gp::parent::Objective;
  using NesterovOptions = dp::gp::parent::NesterovOptions;
  static auto minimize(Objective& f, std::vector<double>& v,
                       const NesterovOptions& o) {
    return dp::gp::parent::minimize_nesterov(f, v, o);
  }
};

struct Sides {
  Side<Parent> parent;
  Side<Work> work;
  Sides() {
    dp::util::Rng rng(29);
    std::vector<double> start(kVars);
    for (double& x : start) x = rng.uniform(0.0, 500.0);
    parent.start = work.start = start;
  }
};

#else

/// bench_micro_kernels' spread fixture: make_scaled(4000) after 9 outer
/// iterations, and the wirelength gamma of the last of them.
struct Fixture {
  dp::dpgen::Benchmark bench = dp::dpgen::make_scaled(4000);
  dp::netlist::Placement pl;
  double gamma = 0.0;
  Fixture() {
    dp::util::Logger::set_level(dp::util::LogLevel::kError);
    dp::gp::GpOptions opt;
    opt.max_outer = 9;
    opt.stop_overflow = 0.0;
    pl = bench.placement;
    gamma = dp::gp::GlobalPlacer(bench.netlist, bench.design, opt)
                .place(pl)
                .trace.back()
                .gamma;
  }
};

/// One side: `calls` evaluations of its term at the fixture, each adding
/// its gradient into the side's own vectors.
template <class Term>
struct Side {
  const Fixture* f;
  dp::gp::VarMap vars;
  Term term;
  std::vector<double> gx, gy;
  double value = 0.0;

  template <class... Args>
  explicit Side(const Fixture& fixture, Args&&... args)
      : f(&fixture),
        vars(fixture.bench.netlist),
        term(std::forward<Args>(args)...),
        gx(vars.num_vars()),
        gy(vars.num_vars()) {}

  double run(std::size_t calls) {
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < calls; ++c) {
      value = term.eval(f->pl, vars, gx, gy);
    }
    return seconds_since(t0);
  }
  std::vector<double> outputs() const {
    std::vector<double> out{value};
    out.insert(out.end(), gx.begin(), gx.end());
    out.insert(out.end(), gy.begin(), gy.end());
    return out;
  }
};

#if defined(KERNEL_AB_DENSITY)
struct Sides {
  Fixture fixture;
  Side<dp::gp::parent::DensityPenalty> parent{
      fixture, fixture.bench.netlist, fixture.bench.design};
  Side<dp::gp::DensityPenalty> work{fixture, fixture.bench.netlist,
                                    fixture.bench.design};
};
#elif defined(KERNEL_AB_WIRELENGTH)
struct Sides {
  Fixture fixture;
  Side<dp::gp::parent::SmoothWirelength> parent{
      fixture, fixture.bench.netlist,
      dp::gp::parent::WirelengthModel::kWa, fixture.gamma};
  Side<dp::gp::SmoothWirelength> work{fixture, fixture.bench.netlist,
                                      dp::gp::WirelengthModel::kWa,
                                      fixture.gamma};
};
#endif

#endif

std::size_t arg_count(int argc, char** argv, const char* name,
                      std::size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return static_cast<std::size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rounds = arg_count(argc, argv, "--rounds", 100);
  const std::size_t calls = arg_count(argc, argv, "--calls", 20);
  Sides sides;
  // One untimed call each, so neither side pays for first-touch costs.
  sides.parent.run(1);
  sides.work.run(1);
  for (std::size_t r = 0; r < rounds; ++r) {
    double tp = 0.0, tw = 0.0;
    if (r % 2 == 0) {
      tp = sides.parent.run(calls);
      tw = sides.work.run(calls);
    } else {
      tw = sides.work.run(calls);
      tp = sides.parent.run(calls);
    }
    std::printf("round %zu %.9g %.9g\n", r, tp, tw);
  }
  const double diff =
      max_rel_diff(sides.parent.outputs(), sides.work.outputs());
  if (diff == 0.0) {
    std::printf("bitwise 1\n");
  } else {
    std::printf("bitwise 0 %.3g\n", diff);
  }
  return 0;
}
