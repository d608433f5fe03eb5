// Micro-benchmarks (google-benchmark): per-evaluation cost of the placer
// kernels on dp_alu32-sized data, including thread-count sweeps for the
// parallel gradient kernels, plus the density and wirelength kernels on a
// spread make_scaled(4000) placement and the quadratic start of that design.
// A run writes a file only when given --benchmark_out=FILE; ctest runs
// every row once as a smoke test.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"
#include "detail/detailed_placer.hpp"
#include "extract/extractor.hpp"
#include "gp/density.hpp"
#include "gp/global_placer.hpp"
#include "gp/quadratic.hpp"
#include "gp/wirelength.hpp"
#include "legal/abacus.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace {

const dp::dpgen::Benchmark& bench_data() {
  static const dp::dpgen::Benchmark b = [] {
    dp::bench::quiet_logs();
    return dp::dpgen::make_benchmark("dp_alu32");
  }();
  return b;
}

void BM_Hpwl(benchmark::State& state) {
  const auto& b = bench_data();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::eval::hpwl(b.netlist, b.placement));
  }
}
BENCHMARK(BM_Hpwl);

void BM_WirelengthGradient(benchmark::State& state) {
  const auto& b = bench_data();
  const dp::gp::VarMap vars(b.netlist);
  dp::gp::SmoothWirelength wl(b.netlist, dp::gp::WirelengthModel::kWa, 1.0);
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  auto pl = b.placement;
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(wl.eval(pl, vars, gx, gy));
  }
}
BENCHMARK(BM_WirelengthGradient);

void BM_DensityGradient(benchmark::State& state) {
  const auto& b = bench_data();
  const dp::gp::VarMap vars(b.netlist);
  dp::gp::DensityPenalty den(b.netlist, b.design);
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  auto pl = b.placement;
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(den.eval(pl, vars, gx, gy));
  }
}
BENCHMARK(BM_DensityGradient);

// Thread-count sweep (1/2/4/hardware) for the parallel kernels. The
// arg is the total worker count handed to the pool; results are bitwise
// identical across the sweep, only the wall time may change.
void thread_args(benchmark::internal::Benchmark* b) {
  std::vector<long> counts = {1, 2, 4};
  const long hw = static_cast<long>(std::thread::hardware_concurrency());
  if (hw > 4) counts.push_back(hw);
  for (const long c : counts) b->Arg(c);
}

void BM_WirelengthEvalThreads(benchmark::State& state) {
  const auto& b = bench_data();
  const dp::gp::VarMap vars(b.netlist);
  dp::gp::SmoothWirelength wl(b.netlist, dp::gp::WirelengthModel::kWa, 1.0);
  wl.set_thread_pool(std::make_shared<dp::util::ThreadPool>(
      static_cast<std::size_t>(state.range(0))));
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  const auto& pl = b.placement;
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(wl.eval(pl, vars, gx, gy));
  }
}
BENCHMARK(BM_WirelengthEvalThreads)->Apply(thread_args);

void BM_DensityEvalThreads(benchmark::State& state) {
  const auto& b = bench_data();
  const dp::gp::VarMap vars(b.netlist);
  dp::gp::DensityPenalty den(b.netlist, b.design);
  den.set_thread_pool(std::make_shared<dp::util::ThreadPool>(
      static_cast<std::size_t>(state.range(0))));
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  const auto& pl = b.placement;
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(den.eval(pl, vars, gx, gy));
  }
}
BENCHMARK(BM_DensityEvalThreads)->Apply(thread_args);

// The density and wirelength kernels again, on a representative mid-GP
// placement: the unplaced dp_alu32 start above piles every cell into a
// few bins and makes most pins coincide, which hides footprint-dependent
// costs and flatters the wirelength kernel's exact-1 extreme-pin weights.
// This is make_scaled(4000) after 9 global-placement outer iterations,
// with the wirelength gamma of the last of them: on the traced gp-sa4k
// benchmark run at seed 1, half of a design's evaluations have run by its
// 9th outer iteration (the median over its eight designs, with the
// spreading outers capped at gp::kSpreadInnerIters CG iterations).
struct SpreadFixture {
  dp::dpgen::Benchmark bench;
  dp::netlist::Placement pl;
  double gamma = 0.0;
};

const SpreadFixture& spread4k() {
  static const SpreadFixture f = [] {
    dp::bench::quiet_logs();
    SpreadFixture s{dp::dpgen::make_scaled(4000), {}};
    dp::gp::GpOptions opt;
    opt.max_outer = 9;
    opt.stop_overflow = 0.0;
    s.pl = s.bench.placement;
    s.gamma = dp::gp::GlobalPlacer(s.bench.netlist, s.bench.design, opt)
                  .place(s.pl)
                  .trace.back()
                  .gamma;
    return s;
  }();
  return f;
}

void BM_DensityGradientSpread4k(benchmark::State& state) {
  const auto& f = spread4k();
  const dp::gp::VarMap vars(f.bench.netlist);
  dp::gp::DensityPenalty den(f.bench.netlist, f.bench.design);
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(den.eval(f.pl, vars, gx, gy));
  }
}
BENCHMARK(BM_DensityGradientSpread4k);

// Value only (passes 0-1): the cost of a rejected line-search probe.
void BM_DensityValueSpread4k(benchmark::State& state) {
  const auto& f = spread4k();
  const dp::gp::VarMap vars(f.bench.netlist);
  dp::gp::DensityPenalty den(f.bench.netlist, f.bench.design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(den.value(f.pl, vars));
  }
}
BENCHMARK(BM_DensityValueSpread4k);

void BM_DensityEvalThreadsSpread4k(benchmark::State& state) {
  const auto& f = spread4k();
  const dp::gp::VarMap vars(f.bench.netlist);
  dp::gp::DensityPenalty den(f.bench.netlist, f.bench.design);
  den.set_thread_pool(std::make_shared<dp::util::ThreadPool>(
      static_cast<std::size_t>(state.range(0))));
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(den.eval(f.pl, vars, gx, gy));
  }
}
BENCHMARK(BM_DensityEvalThreadsSpread4k)->Apply(thread_args);

void BM_WirelengthEvalSpread4k(benchmark::State& state) {
  const auto& f = spread4k();
  const dp::gp::VarMap vars(f.bench.netlist);
  const dp::gp::SmoothWirelength wl(f.bench.netlist,
                                    dp::gp::WirelengthModel::kWa, f.gamma);
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(wl.eval(f.pl, vars, gx, gy));
  }
}
BENCHMARK(BM_WirelengthEvalSpread4k);

// Value with per-pin gradients, no gather: the cost of a line-search probe.
void BM_WirelengthValueSpread4k(benchmark::State& state) {
  const auto& f = spread4k();
  const dp::gp::VarMap vars(f.bench.netlist);
  const dp::gp::SmoothWirelength wl(f.bench.netlist,
                                    dp::gp::WirelengthModel::kWa, f.gamma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl.value(f.pl, vars));
  }
}
BENCHMARK(BM_WirelengthValueSpread4k);

// The quadratic warm start of global placement on make_scaled(4000), from
// the generated (unplaced) positions: 150 Jacobi sweeps plus the jitter.
void BM_QuadraticStart4k(benchmark::State& state) {
  const auto& f = spread4k();
  const dp::gp::VarMap vars(f.bench.netlist);
  const dp::netlist::FlatNets nets(f.bench.netlist, 2);
  for (auto _ : state) {
    auto pl = f.bench.placement;
    dp::gp::quadratic_initial_placement(f.bench.netlist, f.bench.design, vars,
                                        nets, pl);
    benchmark::DoNotOptimize(pl.data());
  }
}
BENCHMARK(BM_QuadraticStart4k)->Unit(benchmark::kMillisecond);

// Abacus on the spread placement: every movable cell legalized around the
// fixed cells, as the flows run it after global placement.
void BM_AbacusSpread4k(benchmark::State& state) {
  const auto& f = spread4k();
  for (auto _ : state) {
    auto pl = f.pl;
    benchmark::DoNotOptimize(
        dp::legal::abacus_all(f.bench.netlist, f.bench.design, pl).size());
  }
}
BENCHMARK(BM_AbacusSpread4k);

// ---- detailed-placement kernel (--benchmark_filter='^BM_Detail') ---------

/// End-to-end detailed-placement pass throughput on legalized dp_alu32.
void BM_DetailPass(benchmark::State& state) {
  const auto& b = bench_data();
  static const dp::netlist::Placement legal = [&b] {
    dp::netlist::Placement pl = b.placement;
    dp::util::Rng rng(17);
    const dp::geom::Rect& core = b.design.core();
    for (dp::netlist::CellId c = 0; c < b.netlist.num_cells(); ++c) {
      if (!b.netlist.cell(c).fixed) {
        pl[c] = {rng.uniform(core.lx, core.hx),
                 rng.uniform(core.ly, core.hy)};
      }
    }
    dp::legal::abacus_all(b.netlist, b.design, pl);
    return pl;
  }();
  dp::detail::DetailOptions opt;
  opt.max_passes = 1;
  for (auto _ : state) {
    auto pl = legal;
    const auto stats = dp::detail::detailed_place(b.netlist, b.design, pl, opt);
    benchmark::DoNotOptimize(stats.hpwl_after);
  }
}
BENCHMARK(BM_DetailPass);

void BM_Extraction(benchmark::State& state) {
  const auto& b = bench_data();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::extract::extract_structures(b.netlist));
  }
}
BENCHMARK(BM_Extraction);

void BM_Signatures(benchmark::State& state) {
  const auto& b = bench_data();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::extract::cell_signatures(b.netlist));
  }
}
BENCHMARK(BM_Signatures);

}  // namespace

BENCHMARK_MAIN();
