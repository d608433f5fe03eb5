#include "gp/quadratic.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/lanes.hpp"
#include "util/prng.hpp"

namespace dp::gp {

using netlist::CellId;
using netlist::PinId;
using util::Lanes;

namespace {
constexpr std::size_t kSweeps = 150;
constexpr double kJitter = 0.25;  ///< in row heights
constexpr std::uint64_t kJitterSeed = 42;
}  // namespace

void quadratic_initial_placement(const netlist::Netlist& nl,
                                 const netlist::Design& design,
                                 const VarMap& vars, netlist::Placement& pl) {
  quadratic_initial_placement(nl, design, vars, netlist::FlatNets(nl, 2),
                              pl);
}

void quadratic_initial_placement(const netlist::Netlist& nl,
                                 const netlist::Design& design,
                                 const VarMap& vars,
                                 const netlist::FlatNets& nets,
                                 netlist::Placement& pl) {
  const geom::Rect& core = design.core();

  // What the cell loop reads of each kept (>= 2-pin) net: its pin-position
  // sums {x, y} (refreshed every sweep), netlist weight and degree - 1.
  struct NetSum {
    Lanes sum;
    double weight;
    double others;
  };
  std::vector<NetSum> net_sums(nets.num_nets());
  for (std::size_t kn = 0; kn < nets.num_nets(); ++kn) {
    const netlist::NetId n = nets.net_id[kn];
    net_sums[kn] = {Lanes{0.0, 0.0}, nl.net(n).weight,
                    static_cast<double>(nl.net_pins(n).size()) - 1.0};
  }
  // A movable cell's pins on kept nets, in cell pin order: variable v's
  // are pin_net/pin_offset[pin_first[v] .. pin_first[v + 1]).
  std::vector<std::uint32_t> kept(nl.num_nets(), netlist::kInvalidId);
  for (std::uint32_t kn = 0; kn < nets.num_nets(); ++kn) {
    kept[nets.net_id[kn]] = kn;
  }
  std::vector<std::uint32_t> pin_first{0}, pin_net;
  std::vector<Lanes> pin_offset;  ///< {dx, dy} from the cell center
  for (const CellId c : vars.movable_cells()) {
    for (const PinId p : nl.cell_pins(c)) {
      const netlist::Pin& pin = nl.pin(p);
      if (kept[pin.net] == netlist::kInvalidId) continue;
      pin_net.push_back(kept[pin.net]);
      pin_offset.push_back(Lanes{pin.offset_x, pin.offset_y});
    }
    pin_first.push_back(static_cast<std::uint32_t>(pin_net.size()));
  }

  for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::size_t kn = 0; kn < nets.num_nets(); ++kn) {
      Lanes sum = {0.0, 0.0};
      for (std::uint32_t s = nets.net_first[kn]; s < nets.net_first[kn + 1];
           ++s) {
        const geom::Point& at = pl[nets.pin_cell[s]];
        sum += Lanes{at.x, at.y} + Lanes{nets.pin_dx[s], nets.pin_dy[s]};
      }
      net_sums[kn].sum = sum;
    }

    // Jacobi update: each movable cell moves to the weighted average of
    // its nets' other-pin centroids. Both axes share each division.
    for (std::size_t v = 0; v < vars.num_vars(); ++v) {
      geom::Point& at = pl[vars.cell(v)];
      const Lanes own = {at.x, at.y};
      Lanes acc = {0.0, 0.0};
      double acc_w = 0.0;
      for (std::uint32_t i = pin_first[v]; i < pin_first[v + 1]; ++i) {
        const NetSum& net = net_sums[pin_net[i]];
        // Average position of the net's other pins.
        acc += net.weight * (net.sum - (own + pin_offset[i])) / net.others;
        acc_w += net.weight;
      }
      if (acc_w <= 0.0) continue;
      const Lanes to = acc / acc_w;
      at.x = std::clamp(to[0], core.lx, core.hx);
      at.y = std::clamp(to[1], core.ly, core.hy);
    }
  }

  util::Rng rng(kJitterSeed);
  const double j = kJitter * design.row_height();
  for (const CellId c : vars.movable_cells()) {
    pl[c].x = std::clamp(pl[c].x + rng.uniform(-j, j), core.lx, core.hx);
    pl[c].y = std::clamp(pl[c].y + rng.uniform(-j, j), core.ly, core.hy);
  }
}

}  // namespace dp::gp
