// Figure 7 (reconstructed): runtime scaling with design size for both
// flows (replicated-ALU designs with 40% glue).
//
// Flags:
//   --quick       smallest size only (CI smoke mode)
//   --threads N   gradient-kernel worker threads (default 1)
#include <cstring>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace dp;
  bench::quiet_logs();
  bool quick = false;
  std::size_t num_threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      num_threads = static_cast<std::size_t>(std::atol(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--threads N]\n", argv[0]);
      return 2;
    }
  }

  util::Table table({"#cells", "base time [s]", "SA time [s]", "SA/base",
                     "base HPWL", "SA HPWL"});
  std::vector<std::size_t> sizes = {1000u, 2000u, 4000u, 8000u};
  if (quick) sizes.resize(1);
  for (const std::size_t target : sizes) {
    const auto b = dpgen::make_scaled(target);
    auto cb = bench::flow_config(bench::Flow::kBaseline);
    auto cs = bench::flow_config(bench::Flow::kGentle);
    cb.num_threads = num_threads;
    cs.num_threads = num_threads;
    const auto rb = bench::run_flow(b, cb);
    const auto rs = bench::run_flow(b, cs);
    table.add_row({util::Table::integer((long long)b.netlist.num_movable()),
                   util::Table::num(rb.seconds, 2),
                   util::Table::num(rs.seconds, 2),
                   util::Table::num(rs.seconds / rb.seconds, 2),
                   util::Table::num(rb.report.hpwl_final, 0),
                   util::Table::num(rs.report.hpwl_final, 0)});
  }
  std::printf("Figure 7: runtime scaling%s\n%s", quick ? " (quick)" : "",
              table.to_string().c_str());
  return 0;
}
