#include "dpgen/benchmarks.hpp"

#include <algorithm>
#include <stdexcept>

namespace dp::dpgen {

using netlist::NetId;

namespace {

/// Glue sized so that datapath cells make up `fraction` of movables.
std::size_t glue_for_fraction(std::size_t datapath_cells, double fraction) {
  if (fraction >= 1.0) return 0;
  if (fraction <= 0.0) return datapath_cells;  // caller handles pure glue
  const double glue = static_cast<double>(datapath_cells) *
                      (1.0 - fraction) / fraction;
  return static_cast<std::size_t>(glue);
}

Benchmark make_dp_add(std::size_t bits, std::size_t depth, std::size_t units,
                      std::uint64_t seed, const std::string& name) {
  Generator gen(name, seed);
  gen.add_control_block("ctl0", 8 * bits / 4);
  std::vector<NetId> taps;
  Bus a = gen.input_bus("a", bits);
  Bus b = gen.input_bus("b", bits);
  // Chain units with local operands: unit u adds its predecessor's result
  // to the value before that (no operand bus is broadcast across units).
  Bus x = a, y = b;
  for (std::size_t u = 0; u < units; ++u) {
    Bus nx = gen.add_pipelined_adder("add" + std::to_string(u), x, y, depth);
    y = x;
    x = std::move(nx);
  }
  taps.insert(taps.end(), x.begin(), x.end());
  const std::size_t dp_cells = gen.num_cells();
  auto outs = gen.add_glue("ctl", glue_for_fraction(dp_cells, 0.75), taps);
  gen.output_bus("sum", x);
  gen.output_bus("flags", Bus(outs.begin(), outs.end()));
  return gen.finish();
}

Benchmark make_dp_alu(std::size_t bits, std::size_t units, std::uint64_t seed,
                      const std::string& name) {
  Generator gen(name, seed);
  gen.add_control_block("ctl0", 8 * bits / 4);
  Bus a = gen.input_bus("a", bits);
  Bus b = gen.input_bus("b", bits);
  Bus x = a, y = b;
  for (std::size_t u = 0; u < units; ++u) {
    Bus nx = gen.add_alu("alu" + std::to_string(u), x, y);
    y = x;
    x = std::move(nx);
  }
  const std::size_t dp_cells = gen.num_cells();
  auto outs = gen.add_glue("ctl", glue_for_fraction(dp_cells, 0.70),
                           std::vector<NetId>(x.begin(), x.end()));
  gen.output_bus("r", x);
  gen.output_bus("flags", Bus(outs.begin(), outs.end()));
  return gen.finish();
}

}  // namespace

std::vector<std::string> standard_benchmarks() {
  return {"dp_add32", "dp_add64",   "dp_mul16", "dp_alu32", "dp_shift32",
          "dp_rf16x32", "mix25",    "mix50",    "mix75",    "glue"};
}

Benchmark make_benchmark(const std::string& name, std::uint64_t seed) {
  if (name == "dp_add32") return make_dp_add(32, 3, 2, seed, name);
  if (name == "dp_add64") return make_dp_add(64, 4, 2, seed, name);
  if (name == "dp_alu32") return make_dp_alu(32, 8, seed, name);

  if (name == "dp_mul16") {
    Generator gen(name, seed);
    gen.add_control_block("ctl0", 40);
    Bus a = gen.input_bus("a", 16);
    Bus b = gen.input_bus("b", 16);
    Bus p0 = gen.add_multiplier("mul0", a, b);
    // Second multiplier takes p0 and p0 rotated by one bit: operand nets
    // stay local between the two arrays.
    Bus p0r = p0;
    std::rotate(p0r.begin(), p0r.begin() + 1, p0r.end());
    Bus p1 = gen.add_multiplier("mul1", p0, p0r);
    const std::size_t dp_cells = gen.num_cells();
    auto outs = gen.add_glue("ctl", glue_for_fraction(dp_cells, 0.78),
                             std::vector<NetId>(p1.begin(), p1.end()));
    gen.output_bus("p", p1);
    gen.output_bus("flags", Bus(outs.begin(), outs.end()));
    return gen.finish();
  }

  if (name == "dp_shift32") {
    Generator gen(name, seed);
    gen.add_control_block("ctl0", 64);
    Bus x = gen.input_bus("a", 32);
    for (int u = 0; u < 6; ++u) {
      x = gen.add_shifter("sh" + std::to_string(u), x);
    }
    const std::size_t dp_cells = gen.num_cells();
    auto outs = gen.add_glue("ctl", glue_for_fraction(dp_cells, 0.70),
                             std::vector<NetId>(x.begin(), x.end()));
    gen.output_bus("y", x);
    gen.output_bus("flags", Bus(outs.begin(), outs.end()));
    return gen.finish();
  }

  if (name == "dp_rf16x32") {
    Generator gen(name, seed);
    gen.add_control_block("ctl0", 64);
    Bus d = gen.input_bus("d", 32);
    Bus q = gen.add_register_file("rf", d, 16);
    const std::size_t dp_cells = gen.num_cells();
    auto outs = gen.add_glue("ctl", glue_for_fraction(dp_cells, 0.80),
                             std::vector<NetId>(q.begin(), q.end()));
    gen.output_bus("q", q);
    gen.output_bus("flags", Bus(outs.begin(), outs.end()));
    return gen.finish();
  }

  if (name == "mix25") return make_mix(0.25, 3000, seed);
  if (name == "mix50") return make_mix(0.50, 3000, seed);
  if (name == "mix75") return make_mix(0.75, 3000, seed);

  if (name == "glue") {
    Generator gen(name, seed);
    auto outs = gen.add_glue("ctl", 2500, {});
    gen.output_bus("o", Bus(outs.begin(), outs.end()));
    return gen.finish();
  }

  throw std::invalid_argument("make_benchmark: unknown benchmark " + name);
}

Benchmark make_mix(double datapath_fraction, std::size_t approx_cells,
                   std::uint64_t seed) {
  const int pct = static_cast<int>(datapath_fraction * 100.0 + 0.5);
  Generator gen("mix" + std::to_string(pct), seed);
  if (datapath_fraction <= 0.0) {
    auto outs = gen.add_glue("ctl", approx_cells, {});
    gen.output_bus("o", Bus(outs.begin(), outs.end()));
    return gen.finish();
  }

  const auto dp_target = static_cast<std::size_t>(
      static_cast<double>(approx_cells) * datapath_fraction);
  gen.add_control_block("ctl0", 64);
  Bus a = gen.input_bus("a", 32);
  Bus b = gen.input_bus("b", 32);
  Bus x = a, y = b;
  std::size_t unit = 0;
  std::vector<NetId> taps;
  // Alternate ALU and adder units until the datapath budget is spent;
  // operands chain locally between consecutive units.
  while (gen.num_cells() < dp_target) {
    const std::string uname = std::string("u").append(std::to_string(unit));
    Bus nx = (unit % 2 == 0) ? gen.add_alu(uname, x, y)
                             : gen.add_pipelined_adder(uname, x, y, 2);
    y = x;
    x = std::move(nx);
    taps.insert(taps.end(), x.begin(), x.end());
    ++unit;
  }
  const std::size_t dp_cells = gen.num_cells();
  const std::size_t glue =
      approx_cells > dp_cells ? approx_cells - dp_cells : 0;
  auto outs = gen.add_glue("ctl", glue, taps);
  gen.output_bus("r", x);
  gen.output_bus("flags", Bus(outs.begin(), outs.end()));
  return gen.finish();
}

Benchmark make_scaled(std::size_t approx_cells, std::uint64_t seed) {
  Generator gen("scale" + std::to_string(approx_cells), seed);
  const auto dp_target = static_cast<std::size_t>(
      static_cast<double>(approx_cells) * 0.6);
  gen.add_control_block("ctl0", 64);
  Bus a = gen.input_bus("a", 32);
  Bus b = gen.input_bus("b", 32);
  Bus x = a, y = b;
  std::size_t unit = 0;
  std::vector<NetId> taps;
  while (gen.num_cells() < dp_target) {
    Bus nx = gen.add_alu("alu" + std::to_string(unit++), x, y);
    y = x;
    x = std::move(nx);
    taps.insert(taps.end(), x.begin(), x.end());
  }
  const std::size_t glue =
      approx_cells > gen.num_cells() ? approx_cells - gen.num_cells() : 0;
  auto outs = gen.add_glue("ctl", glue, taps);
  gen.output_bus("r", x);
  gen.output_bus("flags", Bus(outs.begin(), outs.end()));
  return gen.finish();
}

}  // namespace dp::dpgen
