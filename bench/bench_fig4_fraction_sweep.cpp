// Figure 4 (reconstructed): HPWL delta of the structure-aware flow vs the
// baseline as a function of the design's datapath fraction.
#include "common.hpp"

int main() {
  using namespace dp;
  bench::quiet_logs();
  util::Table table({"dp fraction", "base HPWL", "SA HPWL", "delta",
                     "base truth misalign", "SA truth misalign"});
  for (const double frac : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    const auto b = dpgen::make_mix(frac, 2000);
    const auto rb = bench::run_flow(b, bench::Flow::kBaseline);
    const auto rs = bench::run_flow(b, bench::Flow::kGentle);
    table.add_row(
        {util::Table::pct(frac, 0), util::Table::num(rb.report.hpwl_final, 0),
         util::Table::num(rs.report.hpwl_final, 0),
         util::Table::pct((rs.report.hpwl_final - rb.report.hpwl_final) /
                              rb.report.hpwl_final,
                          1),
         util::Table::num(bench::truth_score(b, rb.placement).misalign, 2),
         util::Table::num(bench::truth_score(b, rs.placement).misalign, 2)});
  }
  std::printf("Figure 4: effect of datapath fraction\n%s",
              table.to_string().c_str());
  return 0;
}
