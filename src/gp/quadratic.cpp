#include "gp/quadratic.hpp"

#include <algorithm>

#include "util/prng.hpp"

namespace dp::gp {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;

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

  // What the cell loop reads of a net, indexed by NetId: its pin-position
  // sums, degree and weight. Only nets of >= 2 pins (the flat ones) are
  // read.
  struct NetSum {
    double x = 0.0, y = 0.0, deg = 0.0, weight = 0.0;
  };
  std::vector<NetSum> sums(nl.num_nets());
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    sums[n].deg = static_cast<double>(nl.net(n).pins.size());
    sums[n].weight = nl.net(n).weight;
  }

  for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
    // Net pin-position sums from the current placement, in net pin order.
    for (std::size_t kn = 0; kn < nets.num_nets(); ++kn) {
      double sx = 0.0, sy = 0.0;
      for (std::uint32_t s = nets.net_first[kn]; s < nets.net_first[kn + 1];
           ++s) {
        const CellId c = nets.pin_cell[s];
        sx += pl[c].x + nets.pin_dx[s];
        sy += pl[c].y + nets.pin_dy[s];
      }
      sums[nets.net_id[kn]].x = sx;
      sums[nets.net_id[kn]].y = sy;
    }

    // Jacobi update: each movable cell moves to the weighted average of
    // its nets' other-pin centroids.
    for (const CellId c : vars.movable_cells()) {
      double acc_x = 0.0, acc_y = 0.0, acc_w = 0.0;
      for (PinId p : nl.cell(c).pins) {
        const NetSum& net = sums[nl.pin(p).net];
        if (net.deg < 2.0) continue;
        const geom::Point own = nl.pin_position(p, pl);
        const double w = net.weight;
        // Average position of the net's other pins.
        acc_x += w * (net.x - own.x) / (net.deg - 1.0);
        acc_y += w * (net.y - own.y) / (net.deg - 1.0);
        acc_w += w;
      }
      if (acc_w <= 0.0) continue;
      pl[c].x = std::clamp(acc_x / acc_w, core.lx, core.hx);
      pl[c].y = std::clamp(acc_y / acc_w, core.ly, core.hy);
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
