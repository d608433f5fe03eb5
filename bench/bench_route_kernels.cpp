// Micro-benchmarks (google-benchmark) for the route::CongestionMap
// kernels: full RUDY+pin rasterization on dp_alu32-sized data, a
// grid-resolution sweep, the report() metric pass, and the cell-inflation
// feedback. A run writes a file only when given --benchmark_out=FILE; CI
// records into BENCH_route_kernels.fresh.json and compares it with the
// committed BENCH_route_kernels.json.
#include <benchmark/benchmark.h>

#include <vector>

#include "common.hpp"
#include "gp/quadratic.hpp"
#include "route/congestion.hpp"
#include "route/inflation.hpp"

namespace {

const dp::dpgen::Benchmark& bench_data() {
  static const dp::dpgen::Benchmark b = [] {
    dp::bench::quiet_logs();
    return dp::dpgen::make_benchmark("dp_alu32");
  }();
  return b;
}

/// Rasterization at the auto-selected grid resolution.
void BM_CongestionBuild(benchmark::State& state) {
  const auto& b = bench_data();
  dp::route::CongestionMap map(b.netlist, b.design, {});
  for (auto _ : state) {
    map.build(b.placement);
    benchmark::DoNotOptimize(map.demand_h().data());
  }
}
BENCHMARK(BM_CongestionBuild);

/// Grid-resolution sweep: rasterization cost scales with bins touched per
/// net, so finer grids stress the inner rasterization loop.
void BM_CongestionBuildBins(benchmark::State& state) {
  const auto& b = bench_data();
  dp::route::CongestionOptions opt;
  opt.bins_per_side = static_cast<std::size_t>(state.range(0));
  dp::route::CongestionMap map(b.netlist, b.design, opt);
  for (auto _ : state) {
    map.build(b.placement);
    benchmark::DoNotOptimize(map.demand_h().data());
  }
}
BENCHMARK(BM_CongestionBuildBins)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// Metric extraction (peaks, overflow, ACE percentile sort) on a built map.
void BM_CongestionReport(benchmark::State& state) {
  const auto& b = bench_data();
  dp::route::CongestionMap map(b.netlist, b.design, {});
  map.build(b.placement);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.report());
  }
}
BENCHMARK(BM_CongestionReport);

/// One cell-inflation pass over all movable cells against a map built on
/// the quadratic start, whose peaks lie far above the inflation threshold:
/// most cells grow, some to the cap, a few stay below the threshold.
void BM_InflateCells(benchmark::State& state) {
  const auto& b = bench_data();
  dp::netlist::Placement pl = b.placement;
  dp::gp::quadratic_initial_placement(b.netlist, b.design,
                                      dp::gp::VarMap(b.netlist), pl);
  dp::route::CongestionMap map(b.netlist, b.design, {});
  map.build(pl);
  const std::vector<bool> eligible(b.netlist.num_cells(), true);
  std::vector<double> scale(b.netlist.num_cells(), 1.0);
  for (auto _ : state) {
    std::fill(scale.begin(), scale.end(), 1.0);
    benchmark::DoNotOptimize(dp::route::inflate_cells(
        b.netlist, map, pl, eligible, scale));
  }
}
BENCHMARK(BM_InflateCells);

}  // namespace

BENCHMARK_MAIN();
