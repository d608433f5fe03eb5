// Determinism of the parallel gradient kernels: the chunked evaluation
// uses fixed chunk boundaries and ordered reductions, so value, gradient,
// and the entire placement trajectory must be BITWISE identical for every
// thread count (ISSUE 2 acceptance: same seed, 1 thread vs N threads ->
// identical final HPWL on dp_add32).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "gp/density.hpp"
#include "gp/global_placer.hpp"
#include "gp/wirelength.hpp"
#include "util/thread_pool.hpp"

namespace dp::gp {
namespace {

using netlist::Placement;

const dpgen::Benchmark& add32() {
  static const dpgen::Benchmark b = dpgen::make_benchmark("dp_add32");
  return b;
}

struct Grads {
  double value = 0.0;
  std::vector<double> gx, gy;
};

Grads eval_wirelength(std::size_t threads) {
  const auto& b = add32();
  const VarMap vars(b.netlist);
  SmoothWirelength wl(b.netlist, WirelengthModel::kWa, 1.5);
  wl.set_thread_pool(std::make_shared<util::ThreadPool>(threads));
  Grads g;
  g.gx.assign(vars.num_vars(), 0.0);
  g.gy.assign(vars.num_vars(), 0.0);
  g.value = wl.eval(b.placement, vars, g.gx, g.gy);
  return g;
}

Grads eval_density(std::size_t threads) {
  const auto& b = add32();
  const VarMap vars(b.netlist);
  DensityPenalty den(b.netlist, b.design);
  den.set_thread_pool(std::make_shared<util::ThreadPool>(threads));
  Grads g;
  g.gx.assign(vars.num_vars(), 0.0);
  g.gy.assign(vars.num_vars(), 0.0);
  g.value = den.eval(b.placement, vars, g.gx, g.gy);
  return g;
}

void expect_bitwise_equal(const Grads& a, const Grads& b) {
  EXPECT_EQ(a.value, b.value);
  ASSERT_EQ(a.gx.size(), b.gx.size());
  for (std::size_t i = 0; i < a.gx.size(); ++i) {
    ASSERT_EQ(a.gx[i], b.gx[i]) << "gx[" << i << "]";
    ASSERT_EQ(a.gy[i], b.gy[i]) << "gy[" << i << "]";
  }
}

TEST(ParallelDeterminism, WirelengthKernelBitwiseAcrossThreadCounts) {
  const Grads serial = eval_wirelength(1);
  expect_bitwise_equal(serial, eval_wirelength(2));
  expect_bitwise_equal(serial, eval_wirelength(4));
}

TEST(ParallelDeterminism, DensityKernelBitwiseAcrossThreadCounts) {
  const Grads serial = eval_density(1);
  expect_bitwise_equal(serial, eval_density(2));
  expect_bitwise_equal(serial, eval_density(4));
}

TEST(ParallelDeterminism, GlobalPlacerFinalHpwlIdentical1VsN) {
  const auto& b = add32();
  GpOptions opt;
  opt.max_outer = 12;  // enough outers to compound any divergence

  Placement pl1 = b.placement;
  const GpResult r1 = GlobalPlacer(b.netlist, b.design, opt).place(pl1);

  Placement pl4 = b.placement;
  GlobalPlacer placer4(b.netlist, b.design, opt);
  placer4.set_thread_pool(std::make_shared<util::ThreadPool>(4));
  const GpResult r4 = placer4.place(pl4);

  EXPECT_EQ(r1.final_hpwl, r4.final_hpwl);
  EXPECT_EQ(r1.final_overflow, r4.final_overflow);
  EXPECT_EQ(r1.total_cg_iterations, r4.total_cg_iterations);
  ASSERT_EQ(pl1.size(), pl4.size());
  for (std::size_t c = 0; c < pl1.size(); ++c) {
    ASSERT_EQ(pl1[c].x, pl4[c].x) << "cell " << c;
    ASSERT_EQ(pl1[c].y, pl4[c].y) << "cell " << c;
  }
}

TEST(ParallelDeterminism, ProfileCountsEvaluations) {
  const auto& b = add32();
  GpOptions opt;
  opt.max_outer = 4;
  Placement pl = b.placement;
  const GpResult res = GlobalPlacer(b.netlist, b.design, opt).place(pl);
  // Every CompositeObjective evaluation calls each term once, value and
  // gradient, and the Nesterov solver has no line search.
  EXPECT_GT(res.total_evaluations, 0u);
  EXPECT_EQ(res.profile.wirelength.calls, res.total_evaluations);
  EXPECT_EQ(res.profile.density.calls, res.total_evaluations);
  EXPECT_EQ(res.profile.line_search.calls, 0u);
  EXPECT_GE(res.profile.wirelength.seconds, 0.0);
  const std::string line = res.profile.to_string();
  EXPECT_NE(line.find("density-bins"), std::string::npos);
  EXPECT_EQ(line.find("line-search"), std::string::npos);
}

TEST(ParallelDeterminism, WorkCountersEqualAcrossThreadCounts) {
  const auto& b = add32();
  GpOptions opt;
  opt.max_outer = 4;
  std::vector<EvalProfile> profiles;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    Placement pl = b.placement;
    GlobalPlacer placer(b.netlist, b.design, opt);
    placer.set_thread_pool(std::make_shared<util::ThreadPool>(threads));
    profiles.push_back(placer.place(pl).profile);
  }
  const EvalProfile& serial = profiles.front();
  EXPECT_GT(serial.density_bins, 0u);
  for (const EvalProfile& p : profiles) {
    EXPECT_EQ(p.density_bins, serial.density_bins);
    EXPECT_EQ(p.wirelength.calls, serial.wirelength.calls);
    EXPECT_EQ(p.density.calls, serial.density.calls);
  }
}

}  // namespace
}  // namespace dp::gp
