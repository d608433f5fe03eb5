#include "dpgen/generator.hpp"

#include <cmath>
#include <stdexcept>

namespace dp::dpgen {

using netlist::CellFunc;
using netlist::CellId;
using netlist::kInvalidId;
using netlist::NetId;
using netlist::PinDir;
using netlist::StructureGroup;

Generator::Generator(std::string name, std::uint64_t seed)
    : name_(std::move(name)),
      builder_(netlist::standard_library()),
      rng_(seed) {}

NetId Generator::fresh_net(const std::string& name) {
  return builder_.add_net(name);
}

CellId Generator::add_pad(const std::string& name) {
  return builder_.add_cell(name, CellFunc::kPad, /*fixed=*/true);
}

Bus Generator::input_bus(const std::string& prefix, std::size_t width) {
  Bus bus;
  bus.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    bus.push_back(input(prefix + "[" + std::to_string(i) + "]"));
  }
  return bus;
}

netlist::NetId Generator::input(const std::string& name) {
  const NetId net = fresh_net(name);
  const CellId pad = add_pad("pi_" + name);
  builder_.connect_dir(pad, 0, net, PinDir::kOutput);
  input_pads_.push_back(pad);
  return net;
}

void Generator::output_bus(const std::string& prefix, const Bus& bus) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    output(prefix + "[" + std::to_string(i) + "]", bus[i]);
  }
}

void Generator::add_control_block(const std::string& prefix,
                                  std::size_t num_cells) {
  std::vector<std::size_t> fanout;
  const std::vector<NetId> live = grow_glue(prefix, num_cells, {}, fanout);
  // Pool: the nets driven by a deterministic sample of the block's cells,
  // every 7th of its two seed pads and glue cells in creation order.
  for (std::size_t k = 0; k < live.size() && control_pool_.size() < 64;
       k += 7) {
    control_pool_.push_back(live[k]);
  }
}

netlist::NetId Generator::control(const std::string& name) {
  if (control_pool_.empty()) return input(name);
  return control_pool_[control_next_++ % control_pool_.size()];
}

void Generator::output(const std::string& name, netlist::NetId net) {
  const CellId pad = add_pad("po_" + name);
  builder_.connect_dir(pad, 0, net, PinDir::kInput);
  output_pads_.push_back(pad);
}

Bus Generator::add_pipelined_adder(const std::string& prefix, const Bus& a,
                                   const Bus& b, std::size_t depth) {
  if (a.size() != b.size() || a.empty() || depth == 0) {
    throw std::invalid_argument("add_pipelined_adder: bad operands");
  }
  const std::size_t bits = a.size();
  auto g = StructureGroup::make(prefix, bits, 3 * depth);

  Bus x = a;
  Bus y = b;  // second operand is registered forward stage by stage, as in
              // a real fully pipelined datapath (no cross-stage broadcast)
  for (std::size_t p = 0; p < depth; ++p) {
    const std::string sp = prefix + "_p" + std::to_string(p);
    NetId carry = control(sp + "_cin");
    Bus next(bits), next_y(bits);
    for (std::size_t bit = 0; bit < bits; ++bit) {
      const std::string sb = sp + "_b" + std::to_string(bit);
      const CellId fa = builder_.add_cell(sb + "_fa", CellFunc::kFullAdder);
      const NetId sum = fresh_net(sb + "_s");
      const NetId cout = fresh_net(sb + "_c");
      builder_.connect(fa, "A", x[bit]);
      builder_.connect(fa, "B", y[bit]);
      builder_.connect(fa, "CI", carry);
      builder_.connect(fa, "S", sum);
      builder_.connect(fa, "CO", cout);
      carry = cout;

      const CellId reg = builder_.add_cell(sb + "_ff", CellFunc::kDff);
      const NetId q = fresh_net(sb + "_q");
      builder_.connect(reg, "D", sum);
      builder_.connect(reg, "Q", q);
      next[bit] = q;

      const CellId breg = builder_.add_cell(sb + "_fb", CellFunc::kDff);
      const NetId qb = fresh_net(sb + "_qb");
      builder_.connect(breg, "D", y[bit]);
      builder_.connect(breg, "Q", qb);
      next_y[bit] = qb;

      g.at(bit, 3 * p) = fa;
      g.at(bit, 3 * p + 1) = reg;
      g.at(bit, 3 * p + 2) = breg;
    }
    x = std::move(next);
    y = std::move(next_y);
  }
  truth_.groups.push_back(std::move(g));
  return x;
}

Bus Generator::add_alu(const std::string& prefix, const Bus& a, const Bus& b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("add_alu: bad operands");
  }
  const std::size_t bits = a.size();
  auto g = StructureGroup::make(prefix, bits, 8);

  const NetId op0 = control(prefix + "_op0");
  const NetId op1 = control(prefix + "_op1");
  const NetId op2 = control(prefix + "_op2");
  NetId carry = control(prefix + "_cin");

  Bus out(bits);
  for (std::size_t bit = 0; bit < bits; ++bit) {
    const std::string sb = prefix + "_b" + std::to_string(bit);
    auto gate2 = [&](CellFunc func, const char* tag, NetId in0, NetId in1) {
      const CellId c = builder_.add_cell(sb + tag, func);
      const NetId y = fresh_net(sb + tag + "_y");
      builder_.connect(c, "A", in0);
      builder_.connect(c, "B", in1);
      builder_.connect(c, "Y", y);
      return std::pair{c, y};
    };
    auto mux = [&](const char* tag, NetId in0, NetId in1, NetId sel) {
      const CellId c = builder_.add_cell(sb + tag, CellFunc::kMux2);
      const NetId y = fresh_net(sb + tag + "_y");
      builder_.connect(c, "A", in0);
      builder_.connect(c, "B", in1);
      builder_.connect(c, "S", sel);
      builder_.connect(c, "Y", y);
      return std::pair{c, y};
    };

    const auto [xg, xnet] = gate2(CellFunc::kXor2, "_xor", a[bit], b[bit]);
    const auto [ag, anet] = gate2(CellFunc::kAnd2, "_and", a[bit], b[bit]);
    const auto [og, onet] = gate2(CellFunc::kOr2, "_or", a[bit], b[bit]);

    const CellId fa = builder_.add_cell(sb + "_fa", CellFunc::kFullAdder);
    const NetId sum = fresh_net(sb + "_s");
    const NetId cout = fresh_net(sb + "_c");
    builder_.connect(fa, "A", a[bit]);
    builder_.connect(fa, "B", b[bit]);
    builder_.connect(fa, "CI", carry);
    builder_.connect(fa, "S", sum);
    builder_.connect(fa, "CO", cout);
    carry = cout;

    const auto [m1, m1net] = mux("_m1", anet, onet, op0);
    const auto [m2, m2net] = mux("_m2", xnet, m1net, op1);
    const auto [m3, m3net] = mux("_m3", sum, m2net, op2);

    const CellId reg = builder_.add_cell(sb + "_ff", CellFunc::kDff);
    const NetId q = fresh_net(sb + "_q");
    builder_.connect(reg, "D", m3net);
    builder_.connect(reg, "Q", q);
    out[bit] = q;

    g.at(bit, 0) = xg;
    g.at(bit, 1) = ag;
    g.at(bit, 2) = og;
    g.at(bit, 3) = fa;
    g.at(bit, 4) = m1;
    g.at(bit, 5) = m2;
    g.at(bit, 6) = m3;
    g.at(bit, 7) = reg;
  }
  truth_.groups.push_back(std::move(g));
  return out;
}

Bus Generator::add_multiplier(const std::string& prefix, const Bus& a,
                              const Bus& b) {
  if (a.size() != b.size() || a.size() < 2) {
    throw std::invalid_argument("add_multiplier: bad operands");
  }
  const std::size_t bits = a.size();
  auto g = StructureGroup::make(prefix, bits, 2 * bits);

  // Shared constant-zero rail for array edges (driven by an input pad;
  // the generator never simulates, only the structure matters).
  const NetId zero = control(prefix + "_zero");

  std::vector<Bus> sum(bits, Bus(bits)), carry(bits, Bus(bits));
  for (std::size_t i = 0; i < bits; ++i) {
    const std::string sr = prefix + "_r" + std::to_string(i);
    for (std::size_t j = 0; j < bits; ++j) {
      const std::string sc = sr + "_c" + std::to_string(j);
      // Partial product.
      const CellId pp = builder_.add_cell(sc + "_pp", CellFunc::kAnd2);
      const NetId ppn = fresh_net(sc + "_ppn");
      builder_.connect(pp, "A", a[j]);
      builder_.connect(pp, "B", b[i]);
      builder_.connect(pp, "Y", ppn);
      g.at(i, 2 * j) = pp;

      if (i == 0) {
        sum[i][j] = ppn;
        carry[i][j] = zero;
        continue;
      }
      // Carry-save adder cell: pp + sum from the row above (shifted) +
      // carry from the row above.
      const CellId fa = builder_.add_cell(sc + "_fa", CellFunc::kFullAdder);
      const NetId s = fresh_net(sc + "_s");
      const NetId co = fresh_net(sc + "_co");
      builder_.connect(fa, "A", ppn);
      builder_.connect(fa, "B", j + 1 < bits ? sum[i - 1][j + 1] : zero);
      builder_.connect(fa, "CI", carry[i - 1][j]);
      builder_.connect(fa, "S", s);
      builder_.connect(fa, "CO", co);
      sum[i][j] = s;
      carry[i][j] = co;
      g.at(i, 2 * j + 1) = fa;
    }
  }
  truth_.groups.push_back(std::move(g));
  return sum[bits - 1];
}

Bus Generator::add_shifter(const std::string& prefix, const Bus& a) {
  const std::size_t bits = a.size();
  if (bits < 2 || (bits & (bits - 1)) != 0) {
    throw std::invalid_argument("add_shifter: width must be a power of two");
  }
  std::size_t levels = 0;
  while ((1u << levels) < bits) ++levels;
  auto g = StructureGroup::make(prefix, bits, levels);

  Bus x = a;
  for (std::size_t k = 0; k < levels; ++k) {
    const NetId sel = control(prefix + "_sel" + std::to_string(k));
    const std::size_t shift = 1u << k;
    Bus next(bits);
    for (std::size_t bit = 0; bit < bits; ++bit) {
      const std::string sb =
          prefix + "_l" + std::to_string(k) + "_b" + std::to_string(bit);
      const CellId m = builder_.add_cell(sb, CellFunc::kMux2);
      const NetId y = fresh_net(sb + "_y");
      builder_.connect(m, "A", x[bit]);
      builder_.connect(m, "B", x[(bit + bits - shift) % bits]);
      builder_.connect(m, "S", sel);
      builder_.connect(m, "Y", y);
      next[bit] = y;
      g.at(bit, k) = m;
    }
    x = std::move(next);
  }
  truth_.groups.push_back(std::move(g));
  return x;
}

Bus Generator::add_register_file(const std::string& prefix, const Bus& data,
                                 std::size_t words) {
  const std::size_t bits = data.size();
  if (bits == 0 || words < 2) {
    throw std::invalid_argument("add_register_file: bad shape");
  }
  // Write slices: one group per word, bits x 2 (write mux + flop).
  std::vector<Bus> q(words, Bus(bits));
  for (std::size_t w = 0; w < words; ++w) {
    const std::string sw = prefix + "_w" + std::to_string(w);
    const NetId we = control(sw + "_we");
    auto g = StructureGroup::make(sw, bits, 2);
    for (std::size_t bit = 0; bit < bits; ++bit) {
      const std::string sb = sw + "_b" + std::to_string(bit);
      const CellId m = builder_.add_cell(sb + "_wm", CellFunc::kMux2);
      const CellId reg = builder_.add_cell(sb + "_ff", CellFunc::kDff);
      const NetId mout = fresh_net(sb + "_wm_y");
      const NetId qn = fresh_net(sb + "_q");
      builder_.connect(reg, "D", mout);
      builder_.connect(reg, "Q", qn);
      builder_.connect(m, "A", qn);       // hold path
      builder_.connect(m, "B", data[bit]);  // write path
      builder_.connect(m, "S", we);
      builder_.connect(m, "Y", mout);
      q[w][bit] = qn;
      g.at(bit, 0) = m;
      g.at(bit, 1) = reg;
    }
    truth_.groups.push_back(std::move(g));
  }

  // Read port: a binary mux tree per bit; one group bits x (words - 1).
  auto g = StructureGroup::make(prefix + "_rd", bits, words - 1);
  Bus out(bits);
  // Select nets shared across bits, one per tree level.
  std::vector<NetId> sels;
  for (std::size_t lvl = 1; lvl < words; lvl <<= 1) {
    sels.push_back(
        control(prefix + "_rsel" + std::to_string(sels.size())));
  }
  for (std::size_t bit = 0; bit < bits; ++bit) {
    Bus level(words);
    for (std::size_t w = 0; w < words; ++w) level[w] = q[w][bit];
    std::size_t stage = 0, lvl_idx = 0;
    while (level.size() > 1) {
      Bus next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        const std::string sb = prefix + "_rd_b" + std::to_string(bit) + "_n" +
                               std::to_string(stage);
        const CellId m = builder_.add_cell(sb, CellFunc::kMux2);
        const NetId y = fresh_net(sb + "_y");
        builder_.connect(m, "A", level[i]);
        builder_.connect(m, "B", level[i + 1]);
        builder_.connect(m, "S", sels[lvl_idx]);
        builder_.connect(m, "Y", y);
        g.at(bit, stage) = m;
        next.push_back(y);
        ++stage;
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
      ++lvl_idx;
    }
    out[bit] = level[0];
  }
  truth_.groups.push_back(std::move(g));
  return out;
}

std::vector<netlist::NetId> Generator::add_glue(
    const std::string& prefix, std::size_t num_cells,
    std::vector<netlist::NetId> seeds) {
  std::vector<std::size_t> fanout;
  const std::vector<NetId> live =
      grow_glue(prefix, num_cells, std::move(seeds), fanout);
  // Expose a handful of driven-but-unused nets as module outputs.
  std::vector<NetId> outs;
  for (std::size_t i = live.size(); i-- > 0 && outs.size() < 8;) {
    if (fanout[i] == 0) outs.push_back(live[i]);
  }
  return outs;
}

std::vector<netlist::NetId> Generator::grow_glue(
    const std::string& prefix, std::size_t num_cells,
    std::vector<netlist::NetId> seeds, std::vector<std::size_t>& fanout) {
  if (seeds.empty()) {
    seeds.push_back(input(prefix + "_seed0"));
    seeds.push_back(input(prefix + "_seed1"));
  }
  std::vector<NetId> live = std::move(seeds);
  fanout.assign(live.size(), 0);

  struct FuncPick {
    CellFunc func;
    int weight;
  };
  static constexpr FuncPick kMix[] = {
      {CellFunc::kInv, 10},   {CellFunc::kBuf, 4},   {CellFunc::kNand2, 15},
      {CellFunc::kNor2, 10},  {CellFunc::kAnd2, 10}, {CellFunc::kOr2, 8},
      {CellFunc::kXor2, 5},   {CellFunc::kAoi21, 9}, {CellFunc::kOai21, 6},
      {CellFunc::kNand3, 6},  {CellFunc::kNor3, 5},  {CellFunc::kMux2, 4},
      {CellFunc::kDff, 8},
  };
  int total_weight = 0;
  for (const auto& p : kMix) total_weight += p.weight;

  const auto& lib = netlist::standard_library();
  for (std::size_t i = 0; i < num_cells; ++i) {
    int roll = static_cast<int>(rng_.below(static_cast<std::uint64_t>(total_weight)));
    CellFunc func = kMix[0].func;
    for (const auto& p : kMix) {
      roll -= p.weight;
      if (roll < 0) {
        func = p.func;
        break;
      }
    }
    const std::string cname = prefix + "_g" + std::to_string(i);
    const CellId c = builder_.add_cell(cname, func);
    const auto& type = lib.type(lib.by_func(func));
    // Inputs: locality-biased picks from the live set.
    for (std::size_t port = 0; port < type.pins.size(); ++port) {
      if (type.pins[port].dir != PinDir::kInput) continue;
      std::size_t idx;
      if (live.size() > 50 && rng_.chance(0.7)) {
        idx = live.size() - 1 - rng_.index(50);  // recent nets
      } else {
        idx = rng_.index(live.size());
      }
      builder_.connect(c, static_cast<std::uint16_t>(port), live[idx]);
      ++fanout[idx];
    }
    const NetId y = fresh_net(cname + "_y");
    builder_.connect(c, static_cast<std::uint16_t>(type.output_pin), y);
    live.push_back(y);
    fanout.push_back(0);
  }
  return live;
}

Benchmark Generator::finish(double utilization) {
  netlist::Netlist nl = builder_.take();
  netlist::Design design = netlist::Design::for_netlist(nl, utilization);
  const geom::Rect& core = design.core();

  netlist::Placement pl(nl.num_cells());
  // Movable cells: parked at the core center with a deterministic jitter so
  // downstream optimizers have a symmetric but non-degenerate start.
  util::Rng jitter(0xD1CEBEEFULL);
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    if (!nl.cell(c).fixed) {
      pl[c] = {core.center().x + jitter.uniform(-0.5, 0.5),
               core.center().y + jitter.uniform(-0.5, 0.5)};
    }
  }

  // Pads: evenly spaced around the periphery, just outside the core so the
  // whole row area stays free for movable cells. Order: inputs on the
  // left/top, outputs on the right/bottom, preserving creation order (which
  // keeps bus bits adjacent).
  const double perim = 2.0 * (core.width() + core.height());
  std::vector<netlist::CellId> pads = input_pads_;
  pads.insert(pads.end(), output_pads_.begin(), output_pads_.end());
  const double step = perim / static_cast<double>(std::max<std::size_t>(pads.size(), 1));
  for (std::size_t i = 0; i < pads.size(); ++i) {
    const double t = step * static_cast<double>(i);
    geom::Point p;
    const double w = core.width(), h = core.height();
    const double pad_off = nl.cell_height(pads[i]) / 2.0;
    if (t < w) {
      p = {core.lx + t, core.ly - pad_off};  // bottom edge
    } else if (t < w + h) {
      p = {core.hx + pad_off, core.ly + (t - w)};  // right edge
    } else if (t < 2 * w + h) {
      p = {core.hx - (t - w - h), core.hy + pad_off};  // top edge
    } else {
      p = {core.lx - pad_off, core.hy - (t - 2 * w - h)};  // left edge
    }
    pl[pads[i]] = p;
  }

  return Benchmark{name_, std::move(nl), std::move(design), std::move(pl),
                   std::move(truth_)};
}

}  // namespace dp::dpgen
