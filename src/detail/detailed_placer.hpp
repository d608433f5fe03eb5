#pragma once

#include <functional>
#include <span>
#include <vector>

#include "detail/profile.hpp"
#include "eval/metrics.hpp"
#include "netlist/design.hpp"
#include "netlist/netlist.hpp"
#include "netlist/structure.hpp"

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

/// Row-based detailed placement: per-cell optimal-interval sliding within
/// row gaps plus adjacent-cell swapping, iterated to convergence. The
/// perfectly packed bit slices of datapath groups are moved only as whole
/// row units, preserving the aligned arrays the structure-aware flow
/// produced.
///
/// Precondition: `pl` is legal (row- and site-aligned, no overlaps);
/// the placer maintains legality move by move.
class DetailedPlacer {
 public:
  DetailedPlacer(const netlist::Netlist& nl, const netlist::Design& design);

  /// Detailed placement over all movable cells. Members of `groups` move
  /// only as whole bit slices (horizontal unit slides, one unit per row a
  /// slice occupies); all other cells get the plain moves. With no groups
  /// every cell gets the plain moves.
  DetailStats run(netlist::Placement& pl,
                  const netlist::StructureAnnotation& groups,
                  const DetailOptions& options = {});

 private:
  const netlist::Netlist* nl_;
  const netlist::Design* design_;
};

}  // namespace dp::detail
