// The paper's tables and figures, reconstructed (DESIGN.md section 4
// indexes them), one experiment per name:
//
//   bench_paper [NAME...] [--quick] [--threads N]
//
//   table1   benchmark statistics
//   table2   datapath extraction quality vs. ground truth
//   suite    Tables 3, 4, 5 and 6 from one pass over the suite
//   fig3     GP convergence on dp_alu32
//   fig4     HPWL delta vs. datapath fraction
//   fig5     alignment-weight ablation on dp_add32
//   fig7     runtime scaling with design size; --quick runs the smallest
//            size only, --threads N sets the gradient-kernel threads
//            (default 1, at most util::kMaxChunks)
//
// With no NAME every experiment runs, in this order. A bad argument
// prints the usage or an error line and exits 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "extract/extractor.hpp"
#include "extract/metrics.hpp"
#include "netlist/stats.hpp"
#include "util/logger.hpp"
#include "util/parse_number.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace dp;
using util::Table;

enum class Flow { kBaseline, kGentle };
constexpr Flow kFlows[] = {Flow::kBaseline, Flow::kGentle};

const char* flow_name(Flow flow) {
  return flow == Flow::kBaseline ? "baseline" : "sa-gentle";
}

core::PlacerConfig flow_config(Flow flow) {
  core::PlacerConfig config;
  config.structure_aware = flow != Flow::kBaseline;
  return config;
}

struct FlowResult {
  core::PlaceReport report;
  netlist::Placement placement;
  double seconds = 0.0;
};

FlowResult run_flow(const dpgen::Benchmark& bench,
                    const core::PlacerConfig& config) {
  FlowResult out;
  core::StructurePlacer placer(bench.netlist, bench.design, config);
  out.placement = bench.placement;
  util::Timer timer;
  out.report = placer.place(out.placement, &bench.truth);
  out.seconds = timer.seconds();
  return out;
}

FlowResult run_flow(const dpgen::Benchmark& bench, Flow flow) {
  return run_flow(bench, flow_config(flow));
}

/// A placement scored against the generator's ground-truth groups: one
/// reference for every flow, whatever groups the flow itself placed.
struct TruthScore {
  double datapath_hpwl = 0.0;
  double misalign = 0.0;  ///< RMS misalignment, rows
  /// Standard deviation of datapath-net HPWLs: the "wire predictability"
  /// metric -- regular placements give near-identical per-bit wires.
  double net_stdev = 0.0;
};

TruthScore truth_score(const dpgen::Benchmark& bench,
                       const netlist::Placement& pl) {
  const netlist::Netlist& nl = bench.netlist;
  const auto member = bench.truth.membership(nl.num_cells());
  std::vector<double> lengths;
  TruthScore score;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    for (const netlist::PinId p : nl.net_pins(n)) {
      if (!member[nl.pin(p).cell]) continue;
      lengths.push_back(eval::net_hpwl(nl, n, pl));
      score.datapath_hpwl += nl.net(n).weight * lengths.back();
      break;
    }
  }
  score.misalign =
      eval::alignment_score(nl, pl, bench.truth).rms_misalignment;
  score.net_stdev = std::sqrt(util::variance(lengths));
  return score;
}

std::string count(std::size_t n) { return Table::integer((long long)n); }

void table1() {
  Table table({"design", "#cells", "#movable", "#nets", "#pins", "avg deg",
               "#groups", "dp cells", "dp frac"});
  for (const auto& name : dpgen::standard_benchmarks()) {
    const auto b = dpgen::make_benchmark(name);
    const auto s = netlist::compute_stats(b.netlist, &b.truth);
    table.add_row({name, count(s.num_cells), count(s.num_movable),
                   count(s.num_nets), count(s.num_pins),
                   Table::num(s.avg_net_degree, 2), count(s.num_groups),
                   count(s.datapath_cells), Table::pct(s.datapath_fraction)});
  }
  std::printf("Table 1: benchmark statistics\n%s", table.to_string().c_str());
}

void table2() {
  Table table({"design", "truth groups", "found", "precision", "recall",
               "lane acc", "transposed", "seeds", "time [ms]"});
  for (const auto& name : dpgen::standard_benchmarks()) {
    const auto b = dpgen::make_benchmark(name);
    const util::Timer timer;
    const auto r = extract::extract_structures(b.netlist);
    const double seconds = timer.seconds();
    const auto q = extract::compare_extraction(b.netlist, r.annotation, b.truth);
    table.add_row({name, count(b.truth.groups.size()), count(q.groups_found),
                   Table::num(q.precision, 3), Table::num(q.recall, 3),
                   Table::num(q.lane_accuracy, 3), count(q.transposed_groups),
                   count(r.seeds_tried), Table::num(seconds * 1e3, 1)});
  }
  std::printf("Table 2: datapath structure extraction quality\n%s",
              table.to_string().c_str());
}

// Tables 3-6 from one pass over the suite. Per design and flow:
// - one plain run that also measures congestion and timing (measuring
//   moves no cell). It feeds Table 3 (headline: total and datapath HPWL,
//   alignment, runtime), Table 4 (legality and structure quality; designs
//   without ground-truth groups are left out), Table 5's "off" columns
//   and Table 6's crit(base) and crit(sa);
// - one run with in-GP cell inflation, for Table 5's "(ref)" columns;
// - for sa-gentle only, one timing-driven run (criticality net
//   reweighting in GP plus the detail WNS guard) for Table 6, its clock
//   pinned to the plain run's critical delay. So WNS(sa) = 0 by
//   construction, and a positive WNS(sa+t) means the driven flow beat it.
// Datapath HPWL, misalignment and the dp-net stdev (wire predictability:
// regular placement makes per-bit wires nearly identical) are scored
// against the generator's ground truth for both flows. Table 6's bar:
// WNS improves on at least 6 of the 10 benchmarks with a total-HPWL
// regression of at most 2%; its summary line reports exactly that.
void suite() {
  Table table3({"design", "flow", "HPWL", "vs base", "truth dp HPWL",
                "truth misalign [rows]", "legal", "time [s]"});
  Table table4({"design", "flow", "overlaps", "off-grid",
                "truth misalign [rows]", "dp-net stdev",
                "dp-net stdev vs base"});
  Table table5({"design", "flow", "peak", "peak(ref)", "ovfl", "ovfl(ref)",
                "ace2%", "ace2%(ref)", "hpwl delta", "checkpoints"});
  Table table6({"design", "crit(base)", "crit(sa)", "crit(sa+t)",
                "wns(sa+t)", "tns(sa+t)", "hpwl delta", "vetoes"});
  std::size_t improved = 0, total = 0;
  double hpwl_sa = 0.0, hpwl_driven = 0.0;
  for (const auto& name : dpgen::standard_benchmarks()) {
    const auto b = dpgen::make_benchmark(name);
    double base = 0.0, base_stdev = 0.0, crit_base = 0.0;
    for (const Flow flow : kFlows) {
      core::PlacerConfig plain_cfg = flow_config(flow);
      plain_cfg.congestion.measure = true;
      plain_cfg.timing.measure = true;
      const auto plain = run_flow(b, plain_cfg);
      const auto& rep = plain.report;
      const auto truth = truth_score(b, plain.placement);
      if (flow == Flow::kBaseline) {
        base = rep.hpwl_final;
        base_stdev = truth.net_stdev;
        crit_base = rep.timing.max_arrival;
      }
      table3.add_row({name, flow_name(flow), Table::num(rep.hpwl_final, 0),
                      Table::pct((rep.hpwl_final - base) / base, 1),
                      Table::num(truth.datapath_hpwl, 0),
                      Table::num(truth.misalign, 2),
                      rep.legality.legal() ? "yes" : "NO",
                      Table::num(plain.seconds, 2)});
      if (!b.truth.groups.empty()) {
        const auto& legal = rep.legality;
        table4.add_row(
            {name, flow_name(flow), count(legal.overlaps),
             count(legal.off_row + legal.off_site + legal.out_of_core),
             Table::num(truth.misalign, 2), Table::num(truth.net_stdev, 2),
             Table::pct((truth.net_stdev - base_stdev) / base_stdev, 1)});
      }

      core::PlacerConfig refine_cfg = flow_config(flow);
      refine_cfg.congestion.measure = true;
      refine_cfg.congestion.refine = true;
      const auto refined = run_flow(b, refine_cfg).report;
      const auto& c0 = rep.congestion;
      const auto& c1 = refined.congestion;
      table5.add_row(
          {name, flow_name(flow), Table::num(c0.peak, 2),
           Table::num(c1.peak, 2), Table::pct(c0.overflow_frac, 1),
           Table::pct(c1.overflow_frac, 1), Table::num(c0.ace_2, 2),
           Table::num(c1.ace_2, 2),
           Table::pct((refined.hpwl_final - rep.hpwl_final) / rep.hpwl_final,
                      2),
           count(refined.congestion_refine_iters)});
      if (flow == Flow::kBaseline) continue;

      core::PlacerConfig driven_cfg = flow_config(flow);
      driven_cfg.timing.driven = true;
      driven_cfg.timing.model.clock_period = rep.timing.max_arrival;
      const auto driven = run_flow(b, driven_cfg).report;
      const double crit_sa = rep.timing.max_arrival;
      const double crit_driven = driven.timing.max_arrival;
      ++total;
      if (crit_driven < crit_sa) ++improved;
      hpwl_sa += rep.hpwl_final;
      hpwl_driven += driven.hpwl_final;
      table6.add_row(
          {name, Table::num(crit_base, 2), Table::num(crit_sa, 2),
           Table::num(crit_driven, 2), Table::num(driven.timing.wns, 2),
           Table::num(driven.timing.tns, 2),
           Table::pct((driven.hpwl_final - rep.hpwl_final) / rep.hpwl_final,
                      2),
           count(driven.detail_stats.profile.guard_vetoes)});
    }
  }
  std::printf(
      "Table 3 (headline): placement quality, baseline vs structure-aware\n%s",
      table3.to_string().c_str());
  std::printf("\nTable 4: legality and structure quality\n%s",
              table4.to_string().c_str());
  std::printf(
      "\nTable 5: routing congestion (RUDY), in-GP inflation off vs on\n%s",
      table5.to_string().c_str());
  std::printf(
      "\nTable 6: static timing, baseline vs structure-aware vs "
      "timing-driven\n%s",
      table6.to_string().c_str());
  std::printf(
      "summary: WNS improved on %zu/%zu benchmarks; total HPWL "
      "regression %+.2f%% (bar: >=6/10 improved, <=2%%)\n",
      improved, total, 100.0 * (hpwl_driven - hpwl_sa) / hpwl_sa);
}

// The structure-aware trace concatenates phase A and phase B.
void fig3() {
  const auto b = dpgen::make_benchmark("dp_alu32");
  for (const Flow flow : kFlows) {
    const auto r = run_flow(b, flow);
    std::printf("Figure 3 series: %s (outer, HPWL, overflow, lambda)\n",
                flow_name(flow));
    for (const auto& p : r.report.gp_result.trace) {
      std::printf("  %3zu  %10.1f  %6.4f  %10.3g\n", p.outer, p.hpwl,
                  p.overflow, p.lambda);
    }
  }
}

void fig4() {
  Table table({"dp fraction", "base HPWL", "SA HPWL", "delta",
               "base truth misalign", "SA truth misalign"});
  for (const double frac : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    const auto b = dpgen::make_mix(frac, 2000);
    const auto rb = run_flow(b, Flow::kBaseline);
    const auto rs = run_flow(b, Flow::kGentle);
    const double base = rb.report.hpwl_final;
    table.add_row({Table::pct(frac, 0), Table::num(base, 0),
                   Table::num(rs.report.hpwl_final, 0),
                   Table::pct((rs.report.hpwl_final - base) / base, 1),
                   Table::num(truth_score(b, rb.placement).misalign, 2),
                   Table::num(truth_score(b, rs.placement).misalign, 2)});
  }
  std::printf("Figure 4: effect of datapath fraction\n%s",
              table.to_string().c_str());
}

// Weight 0 disables the alignment objective (the flow degenerates toward
// the baseline shape); large weights push alignment to zero at a
// wirelength cost.
void fig5() {
  const auto b = dpgen::make_benchmark("dp_add32");
  const double base = run_flow(b, Flow::kBaseline).report.hpwl_final;
  std::printf("baseline: HPWL=%.0f\n", base);
  Table table({"alignment weight", "HPWL", "vs base", "truth misalign [rows]",
               "truth dp HPWL"});
  for (const double w : {0.0, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0}) {
    core::PlacerConfig c = flow_config(Flow::kGentle);
    c.alignment_weight = w;
    const auto r = run_flow(b, c);
    const auto truth = truth_score(b, r.placement);
    table.add_row({Table::num(w, 2), Table::num(r.report.hpwl_final, 0),
                   Table::pct((r.report.hpwl_final - base) / base, 1),
                   Table::num(truth.misalign, 2),
                   Table::num(truth.datapath_hpwl, 0)});
  }
  std::printf("Figure 5: alignment weight ablation (dp_add32)\n%s",
              table.to_string().c_str());
}

// Replicated-ALU designs with 40% glue, both flows.
void fig7(bool quick, std::size_t num_threads) {
  Table table({"#cells", "base time [s]", "SA time [s]", "SA/base",
               "base HPWL", "SA HPWL"});
  std::vector<std::size_t> sizes = {1000u, 2000u, 4000u, 8000u};
  if (quick) sizes.resize(1);
  for (const std::size_t target : sizes) {
    const auto b = dpgen::make_scaled(target);
    auto cb = flow_config(Flow::kBaseline);
    auto cs = flow_config(Flow::kGentle);
    cb.num_threads = num_threads;
    cs.num_threads = num_threads;
    const auto rb = run_flow(b, cb);
    const auto rs = run_flow(b, cs);
    table.add_row({count(b.netlist.num_movable()), Table::num(rb.seconds, 2),
                   Table::num(rs.seconds, 2),
                   Table::num(rs.seconds / rb.seconds, 2),
                   Table::num(rb.report.hpwl_final, 0),
                   Table::num(rs.report.hpwl_final, 0)});
  }
  std::printf("Figure 7: runtime scaling%s\n%s", quick ? " (quick)" : "",
              table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Logger::set_level(util::LogLevel::kError);
  bool quick = false;
  std::size_t num_threads = 1;
  const std::vector<std::pair<std::string, std::function<void()>>>
      experiments = {{"table1", table1},
                     {"table2", table2},
                     {"suite", suite},
                     {"fig3", fig3},
                     {"fig4", fig4},
                     {"fig5", fig5},
                     {"fig7", [&] { fig7(quick, num_threads); }}};

  std::vector<const std::function<void()>*> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
      continue;
    }
    if (arg == "--threads" && i + 1 < argc) {
      try {
        num_threads = util::parse_count(arg, argv[++i], util::kMaxChunks);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_paper: error: %s\n", e.what());
        return 2;
      }
      continue;
    }
    const auto it = std::find_if(experiments.begin(), experiments.end(),
                                 [&](const auto& e) { return e.first == arg; });
    if (it == experiments.end()) {
      std::fprintf(stderr,
                   "usage: %s [table1|table2|suite|fig3|fig4|fig5|fig7]... "
                   "[--quick] [--threads N]\n",
                   argv[0]);
      return 2;
    }
    chosen.push_back(&it->second);
  }
  if (chosen.empty()) {
    for (const auto& e : experiments) chosen.push_back(&e.second);
  }
  for (std::size_t k = 0; k < chosen.size(); ++k) {
    if (k > 0) std::printf("\n");
    (*chosen[k])();
  }
  return 0;
}
