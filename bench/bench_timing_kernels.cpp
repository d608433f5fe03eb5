// Micro-benchmarks (google-benchmark) for the timing subsystem kernels:
// TimingGraph construction (arc collection + levelization) on
// dp_alu32-sized data, the full analyze() sweep, and the criticality ->
// net-weight-scale feedback pass. Unless the caller passes
// --benchmark_out, results are also written to BENCH_timing_kernels.json
// (machine-readable, consumed by CI).
#include <benchmark/benchmark.h>

#include <string_view>
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

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// BENCH_timing_kernels.json (JSON format) when the caller didn't choose
// an output file, so a bare run always leaves a machine-readable record.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  static char out_flag[] = "--benchmark_out=BENCH_timing_kernels.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
