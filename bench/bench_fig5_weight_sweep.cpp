// Figure 5 (reconstructed, ablation): alignment-weight sweep on dp_add32.
// Weight 0 disables the alignment objective (the flow degenerates toward
// the baseline shape); large weights push alignment to zero at a
// wirelength cost.
#include "common.hpp"

int main() {
  using namespace dp;
  bench::quiet_logs();
  const auto b = dpgen::make_benchmark("dp_add32");
  const auto rb = bench::run_flow(b, bench::Flow::kBaseline);
  std::printf("baseline: HPWL=%.0f\n", rb.report.hpwl_final);
  util::Table table({"alignment weight", "HPWL", "vs base",
                     "truth misalign [rows]", "truth dp HPWL"});
  for (const double w : {0.0, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0}) {
    core::PlacerConfig c = bench::flow_config(bench::Flow::kGentle);
    c.alignment_weight = w;
    const auto r = bench::run_flow(b, c);
    const auto truth = bench::truth_score(b, r.placement);
    table.add_row({util::Table::num(w, 2),
                   util::Table::num(r.report.hpwl_final, 0),
                   util::Table::pct((r.report.hpwl_final -
                                     rb.report.hpwl_final) /
                                        rb.report.hpwl_final,
                                    1),
                   util::Table::num(truth.misalign, 2),
                   util::Table::num(truth.datapath_hpwl, 0)});
  }
  std::printf("Figure 5: alignment weight ablation (dp_add32)\n%s",
              table.to_string().c_str());
  return 0;
}
