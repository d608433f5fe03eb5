// End-to-end placement benchmark driver.
//
//   flowbench --workload NAME --seed N --seconds S --trace 0|1
//
// Generates the workload's designs with dpgen from the seed, places them
// with core::StructurePlacer until the time budget is spent (at least one
// full pass over the designs), checks every placement, and prints one
// JSON object as the last line of stdout. With --trace 0 the object holds
// the end-to-end metrics; with --trace 1 it holds the per-layer breakdown
// of a traced run, its overhead against an untraced pass, and the result
// of the cross-thread determinism check. README.md documents every
// metric, its unit, and the layer it belongs to. Exit status: 0 when every
// placement passed its checks and repeated bitwise, 1 otherwise, 2 on a
// usage error.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "gp/density.hpp"
#include "gp/vars.hpp"
#include "gp/wirelength.hpp"
#include "route/congestion.hpp"
#include "timing/timing_analyzer.hpp"
#include "timing/timing_graph.hpp"
#include "util/logger.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace dp;

// ---- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t threads;
  core::LegalizationMode legalization;
  /// The ten standard designs with timing-driven placement and congestion
  /// refinement; otherwise `scaled_designs` make_scaled(4000) designs,
  /// route and timing off.
  bool routed_suite;
  std::size_t scaled_designs;
};

// Several scaled designs per pass, each from its own dpgen seed, so a
// pass averages over netlists: README.md records the seed-to-seed spread
// these counts give.
constexpr Workload kWorkloads[] = {
    {"gp-sa4k", 1, core::LegalizationMode::kGentle, false, 8},
    {"glue-blocks4k", 2, core::LegalizationMode::kStructured, false, 3},
    {"suite-routed", 1, core::LegalizationMode::kGentle, true, 0},
};

std::vector<dpgen::Benchmark> generate(const Workload& w, std::uint64_t seed) {
  std::vector<dpgen::Benchmark> out;
  if (w.routed_suite) {
    for (const auto& name : dpgen::standard_benchmarks()) {
      out.push_back(dpgen::make_benchmark(name, seed));
    }
    return out;
  }
  for (std::size_t k = 0; k < w.scaled_designs; ++k) {
    const std::uint64_t design_seed = seed * w.scaled_designs + k;
    out.push_back(dpgen::make_scaled(4000, design_seed));
    out.back().name += "/" + std::to_string(design_seed);
  }
  return out;
}

core::PlacerConfig make_config(const Workload& w, std::size_t threads) {
  core::PlacerConfig config;
  config.structure_aware = true;
  config.legalization = w.legalization;
  config.num_threads = threads;
  if (w.routed_suite) {
    config.timing.driven = true;
    config.congestion.measure = true;
    config.congestion.refine = true;
  }
  return config;
}

// ---- measurement helpers ----------------------------------------------------

constexpr std::size_t kSetupRepeats = 21;
constexpr std::size_t kProbeCalls = 9;
/// Samples a timing needs beyond a percentile for that percentile to be
/// reported as its tail.
constexpr std::size_t kTailSamples = 10;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Median wall time of one call of `fn`, in microseconds, after one
/// untimed warm-up call.
template <typename Fn>
double per_call_us(Fn&& fn) {
  fn();
  std::vector<double> samples;
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    util::Timer t;
    fn();
    samples.push_back(t.seconds() * 1e6);
  }
  return median(std::move(samples));
}

/// The per-placement wall times of a run on stderr: count, median, and
/// the highest percentile that has at least kTailSamples samples beyond
/// it, which exists only from kTailSamples + 1 samples on.
void print_place_samples(std::vector<double> s) {
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  std::fprintf(stderr, "[run] place() samples=%zu median=%.4fs max=%.4fs", n,
               median(s), n > 0 ? s.back() : 0.0);
  if (n > kTailSamples) {
    const std::size_t i = n - kTailSamples - 1;
    std::fprintf(stderr, " p%.0f=%.4fs (%zu samples beyond)\n",
                 100.0 * static_cast<double>(i) / static_cast<double>(n - 1),
                 s[i], kTailSamples);
  } else {
    std::fprintf(stderr, " tail: none (needs %zu samples)\n",
                 kTailSamples + 1);
  }
}

// ---- one placement ----------------------------------------------------------

/// Quality of a final placement, measured by the benchmark on the result.
/// Datapath HPWL and alignment use the generator's ground-truth annotation,
/// so they do not shift when extraction changes what the placer sees.
struct Quality {
  double hpwl = 0.0;
  double datapath_hpwl = 0.0;
  double align_rms = 0.0;
  double gp_overflow = 0.0;
  double crit_delay = 0.0;  ///< worst endpoint arrival, auto clock period
  double cong_peak = 0.0;   ///< RUDY peak congestion ratio
};

struct Run {
  netlist::Placement placement;
  core::PlaceReport report;
  Quality quality;
  double wall = 0.0;     ///< place() wall seconds
  double cpu = 0.0;      ///< process CPU seconds over place()
  double check_s = 0.0;  ///< the checks below
  std::string error;     ///< empty when every check passed
};

/// Correctness gate of one placement; fills `q`. Returns an empty string
/// on success, else what failed.
std::string check_placement(const dpgen::Benchmark& b,
                            const core::PlacerConfig& config,
                            const netlist::Placement& pl,
                            const core::PlaceReport& r, Quality& q) {
  const eval::LegalityReport legality =
      eval::check_legality(b.netlist, b.design, pl);
  if (!legality.legal()) {
    return "illegal: overlaps=" + std::to_string(legality.overlaps) +
           " off_row=" + std::to_string(legality.off_row) +
           " off_site=" + std::to_string(legality.off_site) +
           " out_of_core=" + std::to_string(legality.out_of_core);
  }
  q.hpwl = eval::hpwl(b.netlist, pl);
  if (!std::isfinite(q.hpwl)) return "non-finite HPWL";
  if (q.hpwl != r.hpwl_final) {
    return "PlaceReport::hpwl_final differs from a fresh eval::hpwl";
  }
  q.datapath_hpwl = eval::datapath_hpwl(b.netlist, pl, b.truth);
  q.align_rms = eval::alignment_score(b.netlist, pl, b.truth).rms_misalignment;
  q.gp_overflow = r.gp_result.final_overflow;

  const timing::TimingGraph graph(b.netlist);
  timing::TimingAnalyzer analyzer(graph, config.timing.model);
  q.crit_delay = analyzer.analyze(pl).max_arrival;
  if (r.timing_measured && q.crit_delay != r.timing.max_arrival) {
    return "PlaceReport::timing differs from a fresh analysis";
  }
  route::CongestionMap cmap(b.netlist, b.design, config.congestion.map);
  cmap.build(pl);
  q.cong_peak = cmap.report().peak;
  if (r.congestion_measured && q.cong_peak != r.congestion.peak) {
    return "PlaceReport::congestion differs from a fresh RUDY build";
  }
  for (const double v : {q.datapath_hpwl, q.align_rms, q.gp_overflow,
                         q.crit_delay, q.cong_peak}) {
    if (!std::isfinite(v)) return "non-finite quality metric";
  }
  return {};
}

Run place_one(core::StructurePlacer& placer, const dpgen::Benchmark& b,
              const core::PlacerConfig& config) {
  Run run;
  run.placement = b.placement;
  try {
    const double cpu0 = cpu_seconds();
    util::Timer t;
    run.report = placer.place(run.placement, &b.truth);
    run.wall = t.seconds();
    run.cpu = cpu_seconds() - cpu0;
    util::Timer c;
    run.error =
        check_placement(b, config, run.placement, run.report, run.quality);
    run.check_s = c.seconds();
  } catch (const std::exception& e) {
    run.error = std::string("exception: ") + e.what();
  }
  return run;
}

/// Geometric mean over designs of one quality value, as placement
/// contests report quality: a sum or mean over designs of different sizes
/// follows the largest values, and README.md records the seed-to-seed
/// spread each choice gives. Designs where the value is 0 (no datapath)
/// are left out.
double geomean(const std::vector<Run>& runs, double Quality::*field) {
  double log_sum = 0.0;
  std::size_t count = 0;
  for (const Run& run : runs) {
    const double v = run.quality.*field;
    if (v > 0.0) {
      log_sum += std::log(v);
      ++count;
    }
  }
  return count > 0 ? std::exp(log_sum / static_cast<double>(count)) : 0.0;
}

// ---- determinism fingerprint ------------------------------------------------

using Fingerprint = std::vector<std::pair<const char*, double>>;

std::size_t detail_candidates(const detail::Profile& p) {
  return p.slide.candidates + p.swap.candidates + p.unit_slide.candidates;
}

/// The deterministic counters and quality values of one placement, which
/// must repeat bitwise across runs and thread counts.
Fingerprint fingerprint(const Run& run) {
  const core::PlaceReport& r = run.report;
  const gp::GpResult& g = r.gp_result;
  const Quality& q = run.quality;
  auto count = [](std::size_t n) { return static_cast<double>(n); };
  return {
      {"hpwl", q.hpwl},
      {"datapath_hpwl", q.datapath_hpwl},
      {"align_rms", q.align_rms},
      {"gp_overflow", q.gp_overflow},
      {"crit_delay", q.crit_delay},
      {"cong_peak", q.cong_peak},
      {"hpwl_gp", r.hpwl_gp},
      {"hpwl_legal", r.hpwl_legal},
      {"gp.outer_iters", count(g.trace.size())},
      {"gp.cg_iters", count(g.total_cg_iterations)},
      {"gp.evals", count(g.total_evaluations)},
      {"gp.line_search_evals", count(g.profile.line_search.calls)},
      {"gp.density.calls", count(g.profile.density.calls)},
      {"gp.wirelength.calls", count(g.profile.wirelength.calls)},
      {"detail.candidates", count(detail_candidates(r.detail_stats.profile))},
      {"detail.rescans", count(r.detail_stats.profile.rescans)},
      {"route.refine_iters", count(r.congestion_refine_iters)},
      {"route.inflated_cells", count(r.congestion_inflated_cells)},
      {"timing.reweights", count(r.timing_reweights)},
      {"extract.seeds", count(r.extraction_seeds)},
      {"extract.groups", count(r.structure.groups.size())},
      {"legal.blocks", count(r.legal_blocks)},
      {"legal.fallback", count(r.legal_fallback)},
  };
}

bool bitwise_equal(const Fingerprint& a, const Fingerprint& b,
                   const std::string& what) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].second) !=
        std::bit_cast<std::uint64_t>(b[i].second)) {
      std::fprintf(stderr, "nondeterministic: %s %s %.17g vs %.17g\n",
                   what.c_str(), a[i].first, a[i].second, b[i].second);
      same = false;
    }
  }
  return same;
}

// ---- per-layer breakdown ----------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-call probes of each layer's hot public function on a final
/// placement, in microseconds.
struct Probes {
  double density_us = 0.0;
  double wirelength_us = 0.0;
  double route_us = 0.0;
  double timing_us = 0.0;
  double hpwl_us = 0.0;
};

Probes probe_layers(const dpgen::Benchmark& b, const netlist::Placement& pl,
                    const core::PlacerConfig& config) {
  volatile double sink = 0.0;
  Probes p;
  auto pool = std::make_shared<util::ThreadPool>(config.num_threads);
  const gp::VarMap vars(b.netlist);
  gp::DensityPenalty density(b.netlist, b.design, config.gp.bins_per_side);
  density.set_thread_pool(pool);
  density.preload_obstacles(pl, vars);
  gp::SmoothWirelength wl(b.netlist, config.gp.wl_model,
                          config.gp.gamma_final_bins * density.bin_width());
  wl.set_thread_pool(pool);
  std::vector<double> gx(vars.num_vars()), gy(vars.num_vars());
  p.density_us = per_call_us([&] { sink = density.eval(pl, vars, gx, gy); });
  p.wirelength_us = per_call_us([&] { sink = wl.eval(pl, vars, gx, gy); });

  route::CongestionMap cmap(b.netlist, b.design, config.congestion.map);
  cmap.set_thread_pool(pool);
  p.route_us = per_call_us([&] { cmap.build(pl); });

  const timing::TimingGraph graph(b.netlist);
  timing::TimingAnalyzer analyzer(graph, config.timing.model);
  analyzer.set_thread_pool(pool);
  p.timing_us = per_call_us([&] { sink = analyzer.analyze(pl).max_arrival; });

  p.hpwl_us = per_call_us([&] { sink = eval::hpwl(b.netlist, pl); });
  (void)sink;
  return p;
}

/// Per-layer metrics of one traced pass over the designs. Stage seconds
/// and counters are summed over designs, probes are averaged.
std::vector<Metric> layer_metrics(const std::vector<Run>& runs,
                                  const std::vector<Probes>& probes,
                                  const core::PlacerConfig& config,
                                  double dpgen_s, double construct_s) {
  double place = 0, extract = 0, gp = 0, route = 0, legal = 0, det = 0,
         timing = 0, check = 0;
  double outer = 0, cg = 0, evals = 0, ls = 0, dens_calls = 0, dens_s = 0,
         wl_calls = 0, wl_s = 0, align_s = 0, overlap_s = 0, unconverged = 0,
         overflow = 0;
  double refine_iters = 0, inflated = 0, reweights = 0;
  double hpwl_gp = 0, hpwl_legal = 0, blocks = 0, fallback = 0;
  double candidates = 0, accepted = 0, rescans = 0, vetoes = 0;
  double seeds = 0, groups = 0;
  Probes mean;
  for (const Run& run : runs) {
    const core::PlaceReport& r = run.report;
    const gp::EvalProfile& prof = r.gp_result.profile;
    const detail::Profile& dprof = r.detail_stats.profile;
    place += run.wall;
    extract += r.t_extract;
    gp += r.t_gp;
    route += r.t_congestion;
    legal += r.t_legal;
    det += r.t_detail;
    timing += r.t_timing;
    check += run.check_s;
    outer += static_cast<double>(r.gp_result.trace.size());
    cg += static_cast<double>(r.gp_result.total_cg_iterations);
    evals += static_cast<double>(r.gp_result.total_evaluations);
    ls += static_cast<double>(prof.line_search.calls);
    dens_calls += static_cast<double>(prof.density.calls);
    dens_s += prof.density.seconds;
    wl_calls += static_cast<double>(prof.wirelength.calls);
    wl_s += prof.wirelength.seconds;
    for (const auto& [name, term] : prof.extras) {
      if (name == "alignment") align_s += term.seconds;
      if (name == "overlap") overlap_s += term.seconds;
    }
    if (r.gp_result.final_overflow > config.gp.stop_overflow) ++unconverged;
    overflow += r.gp_result.final_overflow / static_cast<double>(runs.size());
    refine_iters += static_cast<double>(r.congestion_refine_iters);
    inflated += static_cast<double>(r.congestion_inflated_cells);
    reweights += static_cast<double>(r.timing_reweights);
    hpwl_gp += r.hpwl_gp;
    hpwl_legal += r.hpwl_legal;
    blocks += static_cast<double>(r.legal_blocks);
    fallback += static_cast<double>(r.legal_fallback);
    candidates += static_cast<double>(detail_candidates(dprof));
    accepted += static_cast<double>(dprof.slide.accepted + dprof.swap.accepted +
                                    dprof.unit_slide.accepted);
    rescans += static_cast<double>(dprof.rescans);
    vetoes += static_cast<double>(dprof.guard_vetoes);
    seeds += static_cast<double>(r.extraction_seeds);
    groups += static_cast<double>(r.structure.groups.size());
  }
  const double n = static_cast<double>(probes.size());
  for (const Probes& p : probes) {
    mean.density_us += p.density_us / n;
    mean.wirelength_us += p.wirelength_us / n;
    mean.route_us += p.route_us / n;
    mean.timing_us += p.timing_us / n;
    mean.hpwl_us += p.hpwl_us / n;
  }
  const double self = place - (extract + gp + route + legal + det);
  return {
      {"place.s", place, "s"},
      {"gp.s", gp, "s"},
      {"gp.outer_iters", outer, "count"},
      {"gp.cg_iters", cg, "count"},
      {"gp.evals", evals, "count"},
      {"gp.line_search_evals", ls, "count"},
      {"gp.density.calls", dens_calls, "count"},
      {"gp.density.s", dens_s, "s"},
      {"gp.wirelength.calls", wl_calls, "count"},
      {"gp.wirelength.s", wl_s, "s"},
      {"gp.alignment.s", align_s, "s"},
      {"gp.overlap.s", overlap_s, "s"},
      {"gp.unconverged", unconverged, "count"},
      {"gp.overflow", overflow, "fraction"},
      {"gp.density.eval_us", mean.density_us, "us"},
      {"gp.wirelength.eval_us", mean.wirelength_us, "us"},
      {"route.s", route, "s"},
      {"route.refine_iters", refine_iters, "count"},
      {"route.inflated_cells", inflated, "count"},
      {"route.build_us", mean.route_us, "us"},
      {"legal.s", legal, "s"},
      {"legal.hpwl_growth", hpwl_gp > 0.0 ? hpwl_legal / hpwl_gp : 0.0,
       "ratio"},
      {"legal.blocks", blocks, "count"},
      {"legal.fallback", fallback, "count"},
      {"timing.s", timing, "s"},
      {"timing.reweights", reweights, "count"},
      {"timing.analyze_us", mean.timing_us, "us"},
      {"detail.s", det, "s"},
      {"detail.candidates", candidates, "count"},
      {"detail.accept_ratio", candidates > 0.0 ? accepted / candidates : 0.0,
       "ratio"},
      {"detail.rescans", rescans, "count"},
      {"detail.guard_vetoes", vetoes, "count"},
      {"extract.s", extract, "s"},
      {"extract.seeds", seeds, "count"},
      {"extract.groups", groups, "count"},
      {"core.self_s", self, "s"},
      {"core.construct_s", construct_s, "s"},
      {"dpgen.s", dpgen_s, "s"},
      {"eval.hpwl_us", mean.hpwl_us, "us"},
      {"eval.align_rms", geomean(runs, &Quality::align_rms), "rows"},
      {"bench.check_s", check, "s"},
  };
}

double metric(const std::vector<Metric>& m, const char* name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  return 0.0;
}

/// The stage spans of one traced pass as an indented tree on stderr.
void print_span_tree(const std::vector<Metric>& m) {
  const double place_s = metric(m, "place.s");
  auto line = [&](const char* label, double s) {
    std::fprintf(stderr, "[trace] %-26s %10.4f s %6.1f%%\n", label, s,
                 place_s > 0.0 ? 100.0 * s / place_s : 0.0);
  };
  line("place", place_s);
  line("  extract", metric(m, "extract.s"));
  line("  gp", metric(m, "gp.s"));
  line("    gp.density (all GP runs)", metric(m, "gp.density.s"));
  line("    gp.wirelength (all)", metric(m, "gp.wirelength.s"));
  line("  route", metric(m, "route.s"));
  line("  legal", metric(m, "legal.s"));
  line("  detail", metric(m, "detail.s"));
  line("  core.self", metric(m, "core.self_s"));
  line("timing (overlaps gp/detail)", metric(m, "timing.s"));
}

// ---- passes -----------------------------------------------------------------

/// One placement of every design.
struct Pass {
  std::vector<Run> runs;  ///< placements cleared; reports kept
  std::vector<Probes> probes;
  double place_s = 0.0;  ///< sum of place() wall times
  double cpu_s = 0.0;    ///< sum of process CPU time over place()
  double wall_s = 0.0;   ///< the whole pass: place, checks, probes
  std::size_t failed = 0;
};

Pass run_pass(std::vector<core::StructurePlacer>& placers,
              const std::vector<dpgen::Benchmark>& designs,
              const core::PlacerConfig& config, std::size_t count,
              bool probe) {
  Pass pass;
  util::Timer t;
  for (std::size_t d = 0; d < count; ++d) {
    Run run = place_one(placers[d], designs[d], config);
    pass.place_s += run.wall;
    pass.cpu_s += run.cpu;
    if (!run.error.empty()) {
      ++pass.failed;
      std::fprintf(stderr, "FAILED %s: %s\n", designs[d].name.c_str(),
                   run.error.c_str());
    } else if (probe) {
      pass.probes.push_back(probe_layers(designs[d], run.placement, config));
    }
    run.placement.clear();
    pass.runs.push_back(std::move(run));
  }
  pass.wall_s = t.seconds();
  return pass;
}

/// Prints the convergence and quality line of each design of a pass.
void print_designs(const Pass& pass,
                   const std::vector<dpgen::Benchmark>& designs,
                   const core::PlacerConfig& config) {
  for (std::size_t d = 0; d < pass.runs.size(); ++d) {
    const Run& run = pass.runs[d];
    const gp::GpResult& g = run.report.gp_result;
    const std::size_t max_outer =
        config.gp.max_outer +
        (run.report.structure.groups.empty() ? 0 : config.align_outer);
    const Quality& q = run.quality;
    std::fprintf(stderr,
                 "[design] %-10s cells=%zu outer=%zu/%zu overflow=%.4f "
                 "(stop %.2f)%s place=%.3fs hpwl=%.1f dp_hpwl=%.1f "
                 "align=%.4f crit=%.2f cong=%.4f\n",
                 designs[d].name.c_str(), designs[d].netlist.num_cells(),
                 g.trace.size(), max_outer, g.final_overflow,
                 config.gp.stop_overflow,
                 g.final_overflow > config.gp.stop_overflow ? " UNCONVERGED"
                                                            : "",
                 run.wall, q.hpwl, q.datapath_hpwl, q.align_rms, q.crit_delay,
                 q.cong_peak);
  }
}

/// Compares every placement of `pass` with the same design's reference
/// fingerprint; `label` names the comparison in mismatch messages.
bool matches(const Pass& pass, const std::vector<Fingerprint>& reference,
             const std::vector<dpgen::Benchmark>& designs, const char* label) {
  bool same = true;
  for (std::size_t d = 0; d < pass.runs.size(); ++d) {
    same = bitwise_equal(reference[d], fingerprint(pass.runs[d]),
                         designs[d].name + " (" + label + ")") &&
           same;
  }
  return same;
}

// ---- output -----------------------------------------------------------------

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload gp-sa4k|glue-blocks4k|suite-routed "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::string(v) == w.name) workload = &w;
      }
      if (workload == nullptr) return usage(argv[0]);
    } else if (arg == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") return usage(argv[0]);
      trace = std::string(v) == "1";
    } else {
      return usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return usage(argv[0]);
  }
  if (workload == nullptr || !(seconds >= 0.0)) return usage(argv[0]);
  util::Logger::set_level(util::LogLevel::kError);

  const core::PlacerConfig config = make_config(*workload, workload->threads);

  // ---- set-up: generation + placer construction, median of repeats -------
  std::vector<dpgen::Benchmark> designs;
  std::vector<core::StructurePlacer> placers;
  std::vector<double> setup_s, dpgen_s, construct_s;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    placers.clear();
    designs.clear();
    util::Timer t;
    designs = generate(*workload, seed);
    const double gen = t.seconds();
    util::Timer c;
    for (const dpgen::Benchmark& b : designs) {
      placers.emplace_back(b.netlist, b.design, config);
    }
    const double cons = c.seconds();
    dpgen_s.push_back(gen);
    construct_s.push_back(cons);
    setup_s.push_back(gen + cons);
  }

  // ---- measured passes ------------------------------------------------------
  // A pass places every design once; passes repeat until the budget is
  // spent, and every pass must repeat the first one bitwise. In a traced
  // run the first pass is untraced and every later pass probes each layer
  // after each placement; the traced passes give the per-layer metrics and,
  // against the untraced one, the trace overhead. Nothing the trace records
  // runs inside place().
  const std::size_t n = designs.size();
  const std::size_t min_passes = trace ? 2 : 1;
  std::size_t attempted = 0, failed = 0;
  bool deterministic = true;
  std::vector<Fingerprint> reference;
  std::vector<Pass> passes;
  util::Timer budget;
  while (passes.size() < min_passes || budget.seconds() < seconds) {
    const bool traced = trace && !passes.empty();
    Pass pass = run_pass(placers, designs, config, n, traced);
    attempted += n;
    failed += pass.failed;
    if (pass.failed > 0) break;
    if (passes.empty()) {
      print_designs(pass, designs, config);
      for (const Run& run : pass.runs) reference.push_back(fingerprint(run));
    } else {
      deterministic = matches(pass, reference, designs, "repeat") &&
                      deterministic;
    }
    std::fprintf(stderr, "[pass] %zu%s place=%.4fs cpu=%.4fs wall=%.4fs\n",
                 passes.size(), traced ? " traced" : "", pass.place_s,
                 pass.cpu_s, pass.wall_s);
    passes.push_back(std::move(pass));
  }

  // ---- cross-thread determinism check (traced run) --------------------------
  // The first design is placed again at the other of 1 and 2 threads, by a
  // placer of its own, and must match the reference bitwise.
  const std::size_t other_threads = workload->threads == 1 ? 2 : 1;
  if (trace && failed == 0) {
    const core::PlacerConfig other = make_config(*workload, other_threads);
    std::vector<core::StructurePlacer> other_placers;
    other_placers.emplace_back(designs[0].netlist, designs[0].design, other);
    const Pass pass = run_pass(other_placers, designs, other, 1, false);
    attempted += 1;
    failed += pass.failed;
    const std::string label = std::to_string(other_threads) + " threads";
    const bool same = pass.failed == 0 &&
                      matches(pass, reference, designs, label.c_str());
    deterministic = same && deterministic;
    std::fprintf(stderr, "[check] %s at %zu vs %zu threads: %s\n",
                 designs[0].name.c_str(), other_threads, workload->threads,
                 same ? "bitwise identical" : "MISMATCH");
  }

  const bool correct = failed == 0 && deterministic;
  std::fprintf(stderr,
               "[run] workload=%s seed=%llu threads=%zu passes=%zu "
               "placements=%zu fail_frac=%zu/%zu %s\n",
               workload->name, static_cast<unsigned long long>(seed),
               config.num_threads, passes.size(), attempted, failed, attempted,
               deterministic ? "deterministic" : "NONDETERMINISTIC");

  std::vector<Metric> metrics;
  if (!correct) {
    // The metrics of a failed run are not comparable; report the counts.
  } else if (trace) {
    // Median over traced passes of every per-layer value.
    std::vector<std::vector<Metric>> layers;
    std::vector<double> traced_wall, traced_place;
    for (std::size_t p = 1; p < passes.size(); ++p) {
      layers.push_back(layer_metrics(passes[p].runs, passes[p].probes, config,
                                     median(dpgen_s), median(construct_s)));
      traced_wall.push_back(passes[p].wall_s);
      traced_place.push_back(passes[p].place_s);
    }
    for (std::size_t i = 0; i < layers.front().size(); ++i) {
      std::vector<double> values;
      for (const auto& l : layers) values.push_back(l[i].value);
      metrics.push_back(
          {layers.front()[i].name, median(values), layers.front()[i].unit});
    }
    // Overhead of the traced passes against the untraced first pass: of
    // the whole pass (probes included), and of place() alone.
    const Pass& untraced = passes.front();
    metrics.push_back({"trace.overhead_pct",
                       100.0 * (median(traced_wall) - untraced.wall_s) /
                           untraced.wall_s,
                       "%"});
    metrics.push_back({"trace.place_delta_pct",
                       100.0 * (median(traced_place) - untraced.place_s) /
                           untraced.place_s,
                       "%"});
    print_span_tree(layers.back());
  } else {
    std::vector<double> place_samples, pass_place, pass_cpu;
    for (const Pass& pass : passes) {
      pass_place.push_back(pass.place_s);
      pass_cpu.push_back(pass.cpu_s);
      for (const Run& run : pass.runs) place_samples.push_back(run.wall);
    }
    const std::vector<Run>& runs = passes.front().runs;
    metrics = {
        {"place_s", median(pass_place), "s"},
        {"place_cpu_s", median(pass_cpu), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"hpwl", geomean(runs, &Quality::hpwl), "units"},
        {"datapath_hpwl", geomean(runs, &Quality::datapath_hpwl), "units"},
        {"crit_delay", geomean(runs, &Quality::crit_delay), "delay"},
        {"cong_peak", geomean(runs, &Quality::cong_peak), "ratio"},
    };
    print_place_samples(std::move(place_samples));
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
