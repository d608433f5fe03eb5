// Table 5 (extension): routing-congestion comparison on the dpgen suite.
// For the baseline and structure-aware flows, with and without cell
// inflation inside global placement: final peak bin ratio, overflow
// fraction, worst-2% ACE, the final-HPWL cost of inflation, and the
// inflation checkpoints applied.
#include "common.hpp"

int main() {
  using namespace dp;
  bench::quiet_logs();
  util::Table table({"design", "flow", "peak", "peak(ref)", "ovfl",
                     "ovfl(ref)", "ace2%", "ace2%(ref)", "hpwl delta",
                     "checkpoints"});
  for (const auto& name : dpgen::standard_benchmarks()) {
    const auto b = dpgen::make_benchmark(name);
    for (const bench::Flow flow :
         {bench::Flow::kBaseline, bench::Flow::kGentle}) {
      core::PlacerConfig plain = bench::flow_config(flow);
      plain.congestion.measure = true;
      const auto off = bench::run_flow(b, plain);

      core::PlacerConfig refined = bench::flow_config(flow);
      refined.congestion.measure = true;
      refined.congestion.refine = true;
      const auto on = bench::run_flow(b, refined);

      const auto& c0 = off.report.congestion;
      const auto& c1 = on.report.congestion;
      table.add_row(
          {name, bench::flow_name(flow), util::Table::num(c0.peak, 2),
           util::Table::num(c1.peak, 2),
           util::Table::pct(c0.overflow_frac, 1),
           util::Table::pct(c1.overflow_frac, 1),
           util::Table::num(c0.ace_2, 2), util::Table::num(c1.ace_2, 2),
           util::Table::pct((on.report.hpwl_final - off.report.hpwl_final) /
                                off.report.hpwl_final,
                            2),
           util::Table::integer(
               (long long)on.report.congestion_refine_iters)});
    }
  }
  std::printf(
      "Table 5: routing congestion (RUDY), in-GP inflation off vs on\n%s",
      table.to_string().c_str());
  return 0;
}
