// Micro-benchmarks (google-benchmark): per-evaluation cost of the placer
// kernels on dp_alu32-sized data, including thread-count sweeps for the
// parallel gradient kernels, plus the density and wirelength kernels on a
// spread make_scaled(4000) placement. Unless the caller passes --benchmark_out,
// results are also written to BENCH_gp_kernels.json (machine-readable,
// consumed by CI).
#include <benchmark/benchmark.h>

#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "detail/detailed_placer.hpp"
#include "eval/incremental_hpwl.hpp"
#include "extract/extractor.hpp"
#include "gp/density.hpp"
#include "gp/global_placer.hpp"
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
  dp::gp::SmoothWirelength wl(
      b.netlist,
      state.range(0) == 0 ? dp::gp::WirelengthModel::kLse
                          : dp::gp::WirelengthModel::kWa,
      1.0);
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  auto pl = b.placement;
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(wl.eval(pl, vars, gx, gy));
  }
}
BENCHMARK(BM_WirelengthGradient)->Arg(0)->Arg(1);

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
// This is make_scaled(4000) after 10 global-placement outer iterations,
// the spread state most evaluations of a run see, with the wirelength
// gamma of the last of those iterations.
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
    opt.max_outer = 10;
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

void BM_WirelengthValueSpread4k(benchmark::State& state) {
  const auto& f = spread4k();
  const dp::gp::SmoothWirelength wl(f.bench.netlist,
                                    dp::gp::WirelengthModel::kWa, f.gamma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl.value(f.pl));
  }
}
BENCHMARK(BM_WirelengthValueSpread4k);

// ---- detailed-placement kernels (recorded to BENCH_detail_kernels.json
// by the filtered CI run: --benchmark_filter='^BM_Detail') -----------------

/// Legalized dp_alu32 placement plus a fixed cycle of candidate moves,
/// shared by the full-rescan and delta kernels so they score identical
/// work. Each candidate shifts a run of `k` cells together -- k = 1 is a
/// slide-pass move, larger k a unit slide of a datapath slice (the
/// structure-aware hot path). With `hi_fanout` the single-cell candidates
/// are drawn from the top 2% of cells by incident net degree (the
/// control-broadcast cohort, ~145 incident pins each) -- the class where
/// a full rescan hurts most and the cached-extent delta shines.
struct DetailFixture {
  dp::netlist::Placement pl;
  std::vector<std::vector<dp::netlist::CellId>> moves;
  std::vector<double> dxs;

  explicit DetailFixture(std::size_t k, bool hi_fanout = false) {
    const auto& b = bench_data();
    pl = b.placement;
    dp::util::Rng rng(17);
    const dp::geom::Rect& core = b.design.core();
    for (dp::netlist::CellId c = 0; c < b.netlist.num_cells(); ++c) {
      if (!b.netlist.cell(c).fixed) {
        pl[c] = {rng.uniform(core.lx, core.hx),
                 rng.uniform(core.ly, core.hy)};
      }
    }
    dp::legal::AbacusLegalizer(b.netlist, b.design).run_all(pl);

    std::vector<dp::netlist::CellId> pool;
    if (hi_fanout) {
      std::vector<std::pair<std::size_t, dp::netlist::CellId>> by_degree;
      std::vector<dp::netlist::NetId> nets;
      for (dp::netlist::CellId c = 0; c < b.netlist.num_cells(); ++c) {
        if (b.netlist.cell(c).fixed) continue;
        nets.clear();
        for (dp::netlist::PinId p : b.netlist.cell(c).pins) {
          nets.push_back(b.netlist.pin(p).net);
        }
        std::sort(nets.begin(), nets.end());
        nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
        std::size_t degree = 0;
        for (dp::netlist::NetId n : nets) {
          degree += b.netlist.net(n).pins.size();
        }
        by_degree.push_back({degree, c});
      }
      std::sort(by_degree.begin(), by_degree.end());
      const std::size_t cnt = std::max<std::size_t>(1, by_degree.size() / 50);
      for (std::size_t i = by_degree.size() - cnt; i < by_degree.size(); ++i) {
        pool.push_back(by_degree[i].second);
      }
    }

    const double site = b.design.site_width();
    const std::size_t n = b.netlist.num_cells();
    while (moves.size() < 1024) {
      std::vector<dp::netlist::CellId> set;
      if (hi_fanout) {
        set.push_back(pool[rng.index(pool.size())]);
      } else {
        const auto start = rng.index(n);
        for (std::size_t c = start; c < n && set.size() < k; ++c) {
          if (!b.netlist.cell(static_cast<dp::netlist::CellId>(c)).fixed) {
            set.push_back(static_cast<dp::netlist::CellId>(c));
          }
        }
        if (set.size() < k) continue;
      }
      const double dx = (static_cast<double>(rng.index(17)) - 8.0) * site;
      if (dx == 0.0) continue;
      moves.push_back(std::move(set));
      dxs.push_back(dx);
    }
  }
};

/// Fixture cache keyed by (k, hi_fanout); hi-fanout uses slot 64.
const DetailFixture& detail_fixture(std::size_t k, bool hi_fanout = false) {
  static std::vector<std::unique_ptr<DetailFixture>> cache(65);
  const std::size_t slot = hi_fanout ? 64 : k;
  if (!cache[slot]) cache[slot] = std::make_unique<DetailFixture>(k, hi_fanout);
  return *cache[slot];
}

/// Candidate-move evaluation the way the detailer did it before the
/// incremental engine: walk the moved cells' incident nets and recompute
/// each net's HPWL from every pin, before and after the move.
void full_rescan_loop(benchmark::State& state, const DetailFixture& fx) {
  const auto& b = bench_data();
  auto pl = fx.pl;
  std::vector<dp::netlist::NetId> nets;
  auto nets_hpwl = [&](const std::vector<dp::netlist::CellId>& cells) {
    nets.clear();
    for (dp::netlist::CellId c : cells) {
      for (dp::netlist::PinId p : b.netlist.cell(c).pins) {
        nets.push_back(b.netlist.pin(p).net);
      }
    }
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
    double total = 0.0;
    for (dp::netlist::NetId n : nets) {
      total += b.netlist.net(n).weight * dp::eval::net_hpwl(b.netlist, n, pl);
    }
    return total;
  };
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& cells = fx.moves[i];
    const double dx = fx.dxs[i];
    const double before = nets_hpwl(cells);
    for (dp::netlist::CellId c : cells) pl[c].x += dx;
    const double after = nets_hpwl(cells);
    for (dp::netlist::CellId c : cells) pl[c].x -= dx;  // always reject
    benchmark::DoNotOptimize(after - before);
    if (++i == fx.moves.size()) i = 0;
  }
}

/// The same candidate moves through eval::IncrementalHpwl::trial_shift:
/// O(pins of the moved cells) against cached per-net extents.
void delta_loop(benchmark::State& state, const DetailFixture& fx) {
  const auto& b = bench_data();
  auto pl = fx.pl;
  dp::eval::IncrementalHpwl inc(b.netlist, pl);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto t = inc.trial_shift(fx.moves[i], fx.dxs[i], 0.0);
    inc.rollback();
    benchmark::DoNotOptimize(t.delta());
    if (++i == fx.moves.size()) i = 0;
  }
}

void BM_DetailCandidateFullRescan(benchmark::State& state) {
  full_rescan_loop(
      state, detail_fixture(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_DetailCandidateFullRescan)->Arg(1)->Arg(8)->Arg(32);

void BM_DetailCandidateDelta(benchmark::State& state) {
  delta_loop(state, detail_fixture(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_DetailCandidateDelta)->Arg(1)->Arg(8)->Arg(32);

/// Single-cell candidates restricted to the control-broadcast cohort
/// (top 2% incident net degree). This is where the detailer burns its
/// time under full rescans -- each candidate touches ~145 pins -- and
/// where the delta path's O(pins of the moved cell) bound pays off.
void BM_DetailCandidateFullRescanHiFanout(benchmark::State& state) {
  full_rescan_loop(state, detail_fixture(1, /*hi_fanout=*/true));
}
BENCHMARK(BM_DetailCandidateFullRescanHiFanout);

void BM_DetailCandidateDeltaHiFanout(benchmark::State& state) {
  delta_loop(state, detail_fixture(1, /*hi_fanout=*/true));
}
BENCHMARK(BM_DetailCandidateDeltaHiFanout);

/// End-to-end detailed-placement pass throughput on legalized dp_alu32.
void BM_DetailPass(benchmark::State& state) {
  const auto& b = bench_data();
  dp::detail::DetailedPlacer placer(b.netlist, b.design);
  dp::detail::DetailOptions opt;
  opt.max_passes = 1;
  for (auto _ : state) {
    auto pl = detail_fixture(1).pl;
    const auto stats = placer.run(pl, opt);
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

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// BENCH_gp_kernels.json (JSON format) when the caller didn't choose an
// output file, so a bare run always leaves a machine-readable record.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  static char out_flag[] = "--benchmark_out=BENCH_gp_kernels.json";
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
