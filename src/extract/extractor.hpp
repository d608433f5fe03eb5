#pragma once

#include <cstdint>
#include <vector>

#include "extract/signature.hpp"
#include "netlist/structure.hpp"

namespace dp::extract {

struct ExtractResult {
  netlist::StructureAnnotation annotation;
  std::size_t seeds_tried = 0;
};

/// Datapath regularity extraction (the paper's first phase).
///
/// Pipeline: (1) WL-refined structural signatures fingerprint each cell's
/// local role; (2) seed columns are discovered as signature-homogeneous
/// chain paths (carry chains, mux cascades) and as same-port sink groups
/// of shared bus nets (write enables, broadcast data); (3) each seed is
/// grown sideways in lockstep -- a stage column extends to a neighbor
/// column when >= tau of its lanes reach a signature-identical cell
/// through the same (port, port, signature) edge label; (4) grown column
/// sets are assembled into bits x stages groups, pruned, and cells are
/// claimed first-come so groups never overlap. Reported groups have at
/// least 4 lanes and 2 stage columns.
ExtractResult extract_structures(const netlist::Netlist& nl);

}  // namespace dp::extract
