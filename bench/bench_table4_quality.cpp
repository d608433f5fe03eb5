// Table 4 (reconstructed): legality and structure-quality detail --
// overlaps (must be 0), alignment score, and wire predictability (stdev
// of datapath net lengths; regular placement makes per-bit wires nearly
// identical, the property datapath designers actually need), all scored
// against the generator's ground truth.
#include "common.hpp"

int main() {
  using namespace dp;
  bench::quiet_logs();
  util::Table table({"design", "flow", "overlaps", "off-grid",
                     "truth misalign [rows]", "dp-net stdev",
                     "dp-net stdev vs base"});
  for (const auto& name : dpgen::standard_benchmarks()) {
    const auto b = dpgen::make_benchmark(name);
    if (b.truth.groups.empty()) continue;
    double base_stdev = 0.0;
    for (const bench::Flow flow :
         {bench::Flow::kBaseline, bench::Flow::kGentle, bench::Flow::kBlocks}) {
      const auto r = bench::run_flow(b, flow);
      const auto truth = bench::truth_score(b, r.placement);
      if (flow == bench::Flow::kBaseline) base_stdev = truth.net_stdev;
      table.add_row(
          {name, bench::flow_name(flow),
           util::Table::integer((long long)r.report.legality.overlaps),
           util::Table::integer(
               (long long)(r.report.legality.off_row +
                           r.report.legality.off_site +
                           r.report.legality.out_of_core)),
           util::Table::num(truth.misalign, 2),
           util::Table::num(truth.net_stdev, 2),
           util::Table::pct((truth.net_stdev - base_stdev) / base_stdev, 1)});
    }
  }
  std::printf("Table 4: legality and structure quality\n%s",
              table.to_string().c_str());
  return 0;
}
