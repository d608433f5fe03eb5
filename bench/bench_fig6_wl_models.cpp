// Figure 6 (reconstructed, ablation): wirelength-model comparison -- the
// classic log-sum-exp model vs the weighted-average model (the group's own
// TCAD'13 contribution), plus the quadratic initializer alone.
#include "common.hpp"
#include "gp/global_placer.hpp"
#include "gp/quadratic.hpp"

int main() {
  using namespace dp;
  bench::quiet_logs();
  util::Table table({"design", "model", "final HPWL", "CG iters", "time [s]"});
  for (const auto& name : {"dp_add32", "dp_alu32", "mix50"}) {
    const auto b = dpgen::make_benchmark(name);
    // Quadratic initializer alone (no legalization; lower bound reference).
    {
      gp::VarMap vars(b.netlist);
      netlist::Placement pl = b.placement;
      util::Timer t;
      gp::quadratic_initial_placement(b.netlist, b.design, vars, pl);
      table.add_row({name, "quadratic-init",
                     util::Table::num(eval::hpwl(b.netlist, pl), 0), "0",
                     util::Table::num(t.seconds(), 2)});
    }
    for (const auto model :
         {gp::WirelengthModel::kLse, gp::WirelengthModel::kWa}) {
      core::PlacerConfig c = bench::flow_config(bench::Flow::kBaseline);
      c.gp.wl_model = model;
      const auto r = bench::run_flow(b, c);
      table.add_row({name,
                     model == gp::WirelengthModel::kLse ? "LSE" : "WA",
                     util::Table::num(r.report.hpwl_final, 0),
                     util::Table::integer(
                         (long long)r.report.gp_result.total_cg_iterations),
                     util::Table::num(r.seconds, 2)});
    }
  }
  std::printf("Figure 6: smooth wirelength model ablation (baseline flow)\n%s",
              table.to_string().c_str());
  return 0;
}
