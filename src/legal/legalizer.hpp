#pragma once

#include <cmath>

#include "netlist/design.hpp"
#include "netlist/netlist.hpp"

namespace dp::legal {

/// Displacement statistics of a legalization run.
struct LegalizeStats {
  double total_displacement = 0.0;
  std::size_t cells_placed = 0;
  std::size_t cells_failed = 0;  ///< could not be placed (capacity exhausted)

  void record(double dx, double dy) {
    const double d = std::abs(dx) + std::abs(dy);
    total_displacement += d;
    ++cells_placed;
  }
};

}  // namespace dp::legal
