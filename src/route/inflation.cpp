#include "route/inflation.hpp"

#include <algorithm>

namespace dp::route {

using netlist::CellId;

std::size_t inflate_cells(const netlist::Netlist& nl,
                          const CongestionMap& map,
                          const netlist::Placement& pl,
                          const std::vector<bool>& eligible,
                          std::vector<double>& scale) {
  std::size_t grown = 0;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (nl.cell(c).fixed || !eligible[c]) continue;
    const double r = map.ratio(map.bin_x(pl[c].x), map.bin_y(pl[c].y));
    if (r <= kInflationThreshold) continue;
    const double factor = 1.0 + kInflationRate * (r - kInflationThreshold);
    const double cap = scale[c] * kInflationMaxScale;
    const double next = std::min(scale[c] * factor, cap);
    if (next > scale[c]) {
      scale[c] = next;
      ++grown;
    }
  }
  return grown;
}

}  // namespace dp::route
