// Table 2 (reconstructed): datapath extraction quality vs. ground truth.
#include "common.hpp"
#include "extract/extractor.hpp"
#include "extract/metrics.hpp"

int main() {
  using namespace dp;
  bench::quiet_logs();
  util::Table table({"design", "truth groups", "found", "precision",
                     "recall", "lane acc", "transposed", "seeds",
                     "time [ms]"});
  for (const auto& name : dpgen::standard_benchmarks()) {
    const auto b = dpgen::make_benchmark(name);
    const util::Timer timer;
    const auto r = extract::extract_structures(b.netlist);
    const double seconds = timer.seconds();
    const auto q = extract::compare_extraction(b.netlist, r.annotation, b.truth);
    table.add_row({name,
                   util::Table::integer((long long)b.truth.groups.size()),
                   util::Table::integer((long long)q.groups_found),
                   util::Table::num(q.precision, 3),
                   util::Table::num(q.recall, 3),
                   util::Table::num(q.lane_accuracy, 3),
                   util::Table::integer((long long)q.transposed_groups),
                   util::Table::integer((long long)r.seeds_tried),
                   util::Table::num(seconds * 1e3, 1)});
  }
  std::printf("Table 2: datapath structure extraction quality\n%s",
              table.to_string().c_str());
  return 0;
}
