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
  const geom::Rect& core = design.core();
  const std::size_t num_nets = nl.num_nets();

  std::vector<double> net_sum_x(num_nets), net_sum_y(num_nets);
  std::vector<double> net_deg(num_nets);

  for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
    // Net centroids from the current placement.
    for (NetId n = 0; n < num_nets; ++n) {
      double sx = 0.0, sy = 0.0;
      for (PinId p : nl.net(n).pins) {
        const geom::Point pos = nl.pin_position(p, pl);
        sx += pos.x;
        sy += pos.y;
      }
      net_sum_x[n] = sx;
      net_sum_y[n] = sy;
      net_deg[n] = static_cast<double>(nl.net(n).pins.size());
    }

    // Jacobi update: each movable cell moves to the weighted average of
    // its nets' other-pin centroids.
    for (const CellId c : vars.movable_cells()) {
      double acc_x = 0.0, acc_y = 0.0, acc_w = 0.0;
      for (PinId p : nl.cell(c).pins) {
        const NetId n = nl.pin(p).net;
        const double deg = net_deg[n];
        if (deg < 2.0) continue;
        const geom::Point own = nl.pin_position(p, pl);
        const double w = nl.net(n).weight;
        // Average position of the net's other pins.
        acc_x += w * (net_sum_x[n] - own.x) / (deg - 1.0);
        acc_y += w * (net_sum_y[n] - own.y) / (deg - 1.0);
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
