// Table 3 (reconstructed, headline): total and datapath HPWL, alignment,
// and runtime for the structure-oblivious baseline vs. the structure-aware
// flow (sa-gentle, the paper's flow). Datapath HPWL and misalignment are
// scored against the generator's ground truth for both flows.
#include "common.hpp"

int main() {
  using namespace dp;
  bench::quiet_logs();
  util::Table table({"design", "flow", "HPWL", "vs base", "truth dp HPWL",
                     "truth misalign [rows]", "legal", "time [s]"});
  for (const auto& name : dpgen::standard_benchmarks()) {
    const auto b = dpgen::make_benchmark(name);
    double base = 0.0;
    for (const bench::Flow flow :
         {bench::Flow::kBaseline, bench::Flow::kGentle}) {
      const auto r = bench::run_flow(b, flow);
      if (flow == bench::Flow::kBaseline) base = r.report.hpwl_final;
      const auto truth = bench::truth_score(b, r.placement);
      table.add_row(
          {name, bench::flow_name(flow),
           util::Table::num(r.report.hpwl_final, 0),
           util::Table::pct((r.report.hpwl_final - base) / base, 1),
           util::Table::num(truth.datapath_hpwl, 0),
           util::Table::num(truth.misalign, 2),
           r.report.legality.legal() ? "yes" : "NO",
           util::Table::num(r.seconds, 2)});
    }
  }
  std::printf("Table 3 (headline): placement quality, baseline vs structure-aware\n%s",
              table.to_string().c_str());
  return 0;
}
