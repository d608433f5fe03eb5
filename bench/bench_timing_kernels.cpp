// Micro-benchmarks (google-benchmark) for the timing subsystem kernels:
// TimingGraph construction (arc collection + levelization) on
// dp_alu32-sized data, the full analyze() sweep, and the criticality ->
// net-weight-scale feedback pass. A run writes a file only when given
// --benchmark_out=FILE; CI records into BENCH_timing_kernels.fresh.json and
// compares it with the committed BENCH_timing_kernels.json.
#include <benchmark/benchmark.h>

#include <vector>

#include "common.hpp"
#include "timing/timing_analyzer.hpp"
#include "timing/timing_graph.hpp"

namespace {

const dp::dpgen::Benchmark& bench_data() {
  static const dp::dpgen::Benchmark b = [] {
    dp::bench::quiet_logs();
    return dp::dpgen::make_benchmark("dp_alu32");
  }();
  return b;
}

const dp::timing::TimingGraph& bench_graph() {
  static const dp::timing::TimingGraph g(bench_data().netlist);
  return g;
}

/// Graph construction: arc collection, CSR builds, Kahn levelization.
void BM_TimingGraphBuild(benchmark::State& state) {
  const auto& b = bench_data();
  for (auto _ : state) {
    dp::timing::TimingGraph g(b.netlist);
    benchmark::DoNotOptimize(g.order().data());
  }
}
BENCHMARK(BM_TimingGraphBuild);

/// Full analysis: net delays, arrival, required, slack,
/// criticality.
void BM_TimingAnalyze(benchmark::State& state) {
  const auto& b = bench_data();
  dp::timing::TimingAnalyzer an(bench_graph());
  for (auto _ : state) {
    benchmark::DoNotOptimize(&an.analyze(b.placement));
  }
}
BENCHMARK(BM_TimingAnalyze);

/// The GP feedback pass: criticality to multiplicative net-weight scale.
void BM_NetCriticality(benchmark::State& state) {
  const auto& b = bench_data();
  dp::timing::TimingAnalyzer an(bench_graph());
  an.analyze(b.placement);
  std::vector<double> scale;
  for (auto _ : state) {
    an.net_weight_scale(8.0, 0.5, scale);
    benchmark::DoNotOptimize(scale.data());
  }
}
BENCHMARK(BM_NetCriticality);

}  // namespace

BENCHMARK_MAIN();
