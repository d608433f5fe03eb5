// dpplace command-line driver: place a Bookshelf design (or a built-in
// generated benchmark) with the baseline or structure-aware flow and write
// the result back as Bookshelf plus an optional SVG and .groups sidecar.
//
// Usage:
//   dpplace_cli --bench dp_alu32 [options]
//   dpplace_cli --aux path/to/design.aux [options]
// Options:
//   --baseline            structure-oblivious flow (default: structure-aware)
//   --weight W            alignment weight (default 0.5)
//   --threads N           gradient-kernel worker threads (default 0 =
//                         hardware concurrency; at most 64, the most tasks
//                         a kernel runs; results are identical for every N)
//   --congestion          estimate routing congestion (RUDY) after GP and
//                         on the final placement; adds report lines and,
//                         with --svg, a heatmap overlay layer
//   --congestion-bins N   congestion grid side length (default 0 = auto;
//                         at most 1024)
//   --congestion-refine   routability inside GP: once GP overflow falls to
//                         0.5, inflate the cells in congested bins so the
//                         GP spreads them (implies --congestion). Nothing
//                         guards the result: HPWL may grow, and on
//                         structured placements the final peak can end
//                         higher than without it
//   --timing              static timing analysis (unit gate delay + linear
//                         wire delay) and timing-driven placement: critical
//                         nets get heavier GP weights each outer iteration
//                         and detailed placement rejects moves that worsen
//                         the WNS proxy; adds report lines and, with --svg,
//                         a critical-path overlay
//   --timing-weight W     criticality weight strength (default 4; implies
//                         --timing)
//   --timing-period P     clock period constraint (default 0 = auto: the
//                         longest path just meets timing; implies --timing)
//   --report-json FILE    dump the PlaceReport as JSON for scripted
//                         experiment harvesting
//   --out PREFIX          write PREFIX.{aux,nodes,nets,pl,scl}
//   --svg FILE            write an SVG rendering
//   --groups FILE         write the extracted structure annotation
//
// A numeric value must be the whole argument, finite and non-negative, and
// an integer where the flag takes N. A bad, missing or too large value, a
// design that cannot be loaded, or an output file that cannot be written
// prints "dpplace_cli: error: ..." and exits 1; an unknown flag prints the
// usage and exits 2.
//
// Note: Bookshelf designs carry no cell functions, so extraction runs on
// connectivity signatures only; generated benchmarks retain functions.

#include <array>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/report_json.hpp"
#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "eval/svg.hpp"
#include "netlist/bookshelf.hpp"
#include "parse_number.hpp"
#include "util/logger.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

/// The largest --congestion-bins: each of the map's three grids holds N x N
/// doubles, and the auto grids top out at 256 (congestion) and 512
/// (density) bins per side.
constexpr std::size_t kMaxCongestionBins = 1024;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--bench NAME | --aux FILE) [--baseline] "
               "[--weight W] [--threads N] "
               "[--congestion] [--congestion-bins N] [--congestion-refine] "
               "[--timing] [--timing-weight W] "
               "[--timing-period P] [--report-json FILE] [--out PREFIX] "
               "[--svg FILE] [--groups FILE]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  using namespace dp;
  using examples::parse_number;
  util::Logger::set_level(util::LogLevel::kInfo);

  std::string bench_name, aux_path, out_prefix, svg_path, groups_path,
      json_path;
  core::PlacerConfig config;
  config.num_threads = 0;  // CLI default: use all hardware threads
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + ": missing value");
      return argv[++i];
    };
    auto number = [&]() { return parse_number<double>(arg, next()); };
    // A count, rejected above `max` before anything is sized by it.
    auto count = [&](std::size_t max) {
      const std::string text = next();
      const auto n = parse_number<std::size_t>(arg, text);
      if (n > max) {
        throw std::invalid_argument(arg + ": expected at most " +
                                    std::to_string(max) + ", got '" + text +
                                    "'");
      }
      return n;
    };
    if (arg == "--bench") {
      bench_name = next();
    } else if (arg == "--aux") {
      aux_path = next();
    } else if (arg == "--baseline") {
      config.structure_aware = false;
    } else if (arg == "--weight") {
      config.alignment_weight = number();
    } else if (arg == "--threads") {
      config.num_threads = count(util::kMaxChunks);
    } else if (arg == "--congestion") {
      config.congestion.measure = true;
    } else if (arg == "--congestion-bins") {
      config.congestion.map.bins_per_side = count(kMaxCongestionBins);
    } else if (arg == "--congestion-refine") {
      config.congestion.measure = true;
      config.congestion.refine = true;
    } else if (arg == "--timing") {
      config.timing.measure = true;
      config.timing.driven = true;
    } else if (arg == "--timing-weight") {
      config.timing.measure = true;
      config.timing.driven = true;
      config.timing.weight = number();
    } else if (arg == "--timing-period") {
      config.timing.measure = true;
      config.timing.driven = true;
      config.timing.model.clock_period = number();
    } else if (arg == "--report-json") {
      json_path = next();
    } else if (arg == "--out") {
      out_prefix = next();
    } else if (arg == "--svg") {
      svg_path = next();
    } else if (arg == "--groups") {
      groups_path = next();
    } else {
      return usage(argv[0]);
    }
  }
  if (bench_name.empty() == aux_path.empty()) return usage(argv[0]);

  // Load the problem from either source; only a generated benchmark has a
  // ground truth to score against.
  const bool generated = !bench_name.empty();
  const netlist::Problem problem = generated
                                       ? dpgen::make_benchmark(bench_name)
                                       : netlist::read_bookshelf(aux_path);
  const netlist::Netlist& nl = problem.netlist;
  const netlist::Design& design = problem.design;
  netlist::Placement pl = problem.placement;
  const netlist::StructureAnnotation* truth =
      generated ? &problem.truth : nullptr;

  std::printf("design: %zu cells (%zu movable), %zu nets, core %.0fx%.0f\n",
              nl.num_cells(), nl.num_movable(), nl.num_nets(),
              design.core().width(), design.core().height());

  util::Timer timer;
  core::StructurePlacer placer(nl, design, config);
  const core::PlaceReport report = placer.place(pl, truth);
  // A generated benchmark is scored against its ground truth, the same
  // reference for every flow; a Bookshelf design has only the run's groups.
  std::printf(
      "placed in %.2fs: HPWL=%.1f (gp %.1f, legal %.1f), %zu groups, "
      "misalign vs %s=%.2f rows, legal=%s%s\n",
      timer.seconds(), report.hpwl_final, report.hpwl_gp, report.hpwl_legal,
      report.structure.groups.size(), truth ? "truth" : "own groups",
      eval::alignment_score(nl, pl, truth ? *truth : report.structure)
          .rms_misalignment,
      report.legality.legal() ? "yes" : "NO",
      report.legality.overlap_truncated ? " (overlap sweep truncated)" : "");
  const gp::GpResult& gp_result = report.gp_result;
  std::printf("gp: %zu outers, stopped by %s at overflow %.3f; %zu CG "
              "iterations, %zu evaluations; inner stops:",
              gp_result.trace.size(), gp::to_string(gp_result.stop_reason),
              gp_result.final_overflow, gp_result.total_cg_iterations,
              gp_result.total_evaluations);
  std::array<std::size_t, gp::kNumCgStops> inner_stops{};
  for (const gp::GpTracePoint& p : gp_result.trace) {
    ++inner_stops[static_cast<std::size_t>(p.inner_stop)];
  }
  for (std::size_t r = 0; r < gp::kNumCgStops; ++r) {
    std::printf(" %s=%zu", gp::to_string(static_cast<gp::CgStop>(r)),
                inner_stops[r]);
  }
  std::printf("\n");
  std::printf("gp eval profile: %s\n",
              report.gp_result.profile.to_string().c_str());
  std::printf("detail profile: %s\n",
              report.detail_stats.profile.to_string().c_str());
  if (report.congestion_measured) {
    const auto& c = report.congestion;
    std::printf(
        "congestion (%zux%zu bins): peak=%.2f (h %.2f, v %.2f) "
        "overflow=%.1f%% bins>cap=%zu ace 0.5/1/2/5%%=%.2f/%.2f/%.2f/%.2f\n",
        c.bins, c.bins, c.peak, c.peak_h, c.peak_v, c.overflow_frac * 100.0,
        c.overflowed_bins, c.ace_0_5, c.ace_1, c.ace_2, c.ace_5);
    std::printf("congestion gp -> final: peak %.2f -> %.2f, overflow "
                "%.1f%% -> %.1f%%",
                report.congestion_gp.peak, c.peak,
                report.congestion_gp.overflow_frac * 100.0,
                c.overflow_frac * 100.0);
    if (config.congestion.refine) {
      std::printf(" (refine: %zu checkpoint(s), %zu cells inflated)",
                  report.congestion_refine_iters,
                  report.congestion_inflated_cells);
    }
    std::printf("\n");
  }
  if (report.timing_measured) {
    const auto& t = report.timing;
    std::printf(
        "timing: wns=%.2f tns=%.2f period=%.2f violations=%zu/%zu "
        "(levels=%zu, path=%zu pins)\n",
        t.wns, t.tns, t.clock_period, t.violations, t.endpoints, t.levels,
        t.critical_path.size());
    std::printf("timing gp -> final: max arrival %.2f -> %.2f "
                "(%zu reweight(s))\n",
                report.timing_gp.max_arrival, t.max_arrival,
                report.timing_reweights);
  }

  if (!out_prefix.empty()) {
    netlist::write_bookshelf(out_prefix, nl, design, pl);
    std::printf("wrote %s.{aux,nodes,nets,pl,scl}\n", out_prefix.c_str());
  }
  if (!svg_path.empty()) {
    eval::SvgOptions svg_options;
    svg_options.groups =
        report.structure.groups.empty() ? nullptr : &report.structure;
    if (report.congestion_measured) {
      svg_options.heatmap_bins = report.congestion.bins;
      svg_options.heatmap = report.congestion.ratios;
    }
    if (report.timing_measured) {
      for (const auto& node : report.timing.critical_path) {
        svg_options.critical_path.push_back(nl.pin_position(node.pin, pl));
      }
    }
    eval::write_svg(svg_path, nl, design, pl, svg_options);
    std::printf("wrote %s\n", svg_path.c_str());
  }
  if (!groups_path.empty()) {
    netlist::write_groups(groups_path, nl, report.structure);
    std::printf("wrote %s\n", groups_path.c_str());
  }
  if (!json_path.empty()) {
    std::ofstream json_out(json_path);
    json_out << core::report_to_json(report, &nl) << "\n";
    json_out.close();
    if (!json_out) {
      throw std::runtime_error("report-json: cannot write " + json_path);
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return report.legality.legal() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpplace_cli: error: %s\n", e.what());
    return 1;
  }
}
