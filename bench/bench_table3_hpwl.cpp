// Tables 3 and 4 (reconstructed) from one set of runs: the baseline and
// the structure-aware flow (sa-gentle, the paper's flow) once per design.
//
// Table 3 (headline): total and datapath HPWL, alignment, and runtime.
// Table 4: legality and structure-quality detail -- overlaps (must be 0),
// off-grid cells, alignment, and wire predictability (stdev of datapath
// net lengths; regular placement makes per-bit wires nearly identical, the
// property datapath designers actually need); designs without ground-truth
// groups are left out. Datapath HPWL, misalignment and the stdev are
// scored against the generator's ground truth for both flows.
#include "common.hpp"

int main() {
  using namespace dp;
  bench::quiet_logs();
  util::Table table3({"design", "flow", "HPWL", "vs base", "truth dp HPWL",
                      "truth misalign [rows]", "legal", "time [s]"});
  util::Table table4({"design", "flow", "overlaps", "off-grid",
                      "truth misalign [rows]", "dp-net stdev",
                      "dp-net stdev vs base"});
  for (const auto& name : dpgen::standard_benchmarks()) {
    const auto b = dpgen::make_benchmark(name);
    double base = 0.0, base_stdev = 0.0;
    for (const bench::Flow flow :
         {bench::Flow::kBaseline, bench::Flow::kGentle}) {
      const auto r = bench::run_flow(b, flow);
      const auto truth = bench::truth_score(b, r.placement);
      if (flow == bench::Flow::kBaseline) {
        base = r.report.hpwl_final;
        base_stdev = truth.net_stdev;
      }
      table3.add_row(
          {name, bench::flow_name(flow),
           util::Table::num(r.report.hpwl_final, 0),
           util::Table::pct((r.report.hpwl_final - base) / base, 1),
           util::Table::num(truth.datapath_hpwl, 0),
           util::Table::num(truth.misalign, 2),
           r.report.legality.legal() ? "yes" : "NO",
           util::Table::num(r.seconds, 2)});
      if (b.truth.groups.empty()) continue;
      const auto& legal = r.report.legality;
      table4.add_row(
          {name, bench::flow_name(flow),
           util::Table::integer((long long)legal.overlaps),
           util::Table::integer((long long)(legal.off_row + legal.off_site +
                                            legal.out_of_core)),
           util::Table::num(truth.misalign, 2),
           util::Table::num(truth.net_stdev, 2),
           util::Table::pct((truth.net_stdev - base_stdev) / base_stdev, 1)});
    }
  }
  std::printf("Table 3 (headline): placement quality, baseline vs structure-aware\n%s",
              table3.to_string().c_str());
  std::printf("\nTable 4: legality and structure quality\n%s",
              table4.to_string().c_str());
  return 0;
}
