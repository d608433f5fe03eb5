#pragma once

#include <functional>
#include <span>
#include <vector>

#include "detail/profile.hpp"
#include "eval/metrics.hpp"
#include "netlist/design.hpp"
#include "netlist/netlist.hpp"

namespace dp::detail {

struct DetailOptions {
  /// Upper bound on passes; the loop also stops once a full pass improves
  /// HPWL by less than a relative 1e-4.
  std::size_t max_passes = 4;
  /// Optional veto over HPWL-improving moves. It sees the moved cells'
  /// nets in ascending order with their net_hpwl without and with the
  /// move (eval::MoveScorer::nets); the placement then holds the moved
  /// positions. Return false to reject; vetoes are counted in
  /// Profile::guard_vetoes. The timing-driven flow uses this to refuse
  /// moves that worsen the WNS proxy.
  std::function<bool(std::span<const eval::NetChange>)> move_guard;
};

struct DetailStats {
  double hpwl_before = 0.0;
  double hpwl_after = 0.0;
  /// Per-pass candidate/accept counts and wall times, nets scored and
  /// guard vetoes.
  Profile profile;
};

/// Row-based detailed placement over all movable cells: per-cell
/// optimal-interval sliding within row gaps plus adjacent-cell swapping,
/// iterated to convergence; fixed cells are blocked row intervals. Neither
/// move changes a cell's row, so the bit rows a structure-aware GP aligned
/// stay aligned.
///
/// Precondition: `pl` is legal (row- and site-aligned, no overlaps);
/// the placer maintains legality move by move.
DetailStats detailed_place(const netlist::Netlist& nl,
                           const netlist::Design& design,
                           netlist::Placement& pl,
                           const DetailOptions& options = {});

}  // namespace dp::detail
