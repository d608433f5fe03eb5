#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace dp::extract {

/// Per-cell structural signature: cells with equal signatures are
/// candidates for being the same logic role in different bit slices.
std::vector<std::uint64_t> cell_signatures(const netlist::Netlist& nl);

}  // namespace dp::extract
