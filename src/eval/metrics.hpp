#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "geom/point.hpp"
#include "netlist/design.hpp"
#include "netlist/netlist.hpp"
#include "netlist/structure.hpp"

namespace dp::eval {

/// Total half-perimeter wirelength over all nets (weighted).
double hpwl(const netlist::Netlist& netlist, const netlist::Placement& pl);

/// HPWL of a single net.
double net_hpwl(const netlist::Netlist& netlist, netlist::NetId net,
                const netlist::Placement& pl);

/// HPWL of one net without and with a candidate move.
struct NetChange {
  netlist::NetId net = netlist::kInvalidId;
  double before = 0.0;
  double after = 0.0;
};

/// Scores candidate moves by rescanning the moved cells' nets with
/// `net_hpwl`. `move` writes the new centers into the placement, so a
/// caller keeps a move by doing nothing and drops it with `undo`.
class MoveScorer {
 public:
  MoveScorer(const netlist::Netlist& netlist, netlist::Placement& pl)
      : nl_(&netlist), pl_(&pl) {}

  /// Weighted HPWL of the moved cells' nets without and with the move.
  struct Score {
    double before = 0.0;
    double after = 0.0;
  };

  /// Moves `cells[k]` (distinct) to center `centers[k]`. Both sums run
  /// over the cells' nets, sorted and unique, in ascending net order.
  Score move(std::span<const netlist::CellId> cells,
             std::span<const geom::Point> centers);

  /// The last move's nets in ascending order, with unweighted
  /// `net_hpwl` values without and with the move.
  std::span<const NetChange> nets() const { return nets_; }

  /// Puts the last move's cells back at their saved positions.
  void undo();

 private:
  const netlist::Netlist* nl_;
  netlist::Placement* pl_;
  std::vector<NetChange> nets_;
  std::vector<std::pair<netlist::CellId, geom::Point>> saved_;
};

/// HPWL restricted to nets with at least one pin on a datapath cell
/// (the "datapath wirelength" column of the headline table).
double datapath_hpwl(const netlist::Netlist& netlist,
                     const netlist::Placement& pl,
                     const netlist::StructureAnnotation& groups);

/// Legality violations of a row-based placement.
struct LegalityReport {
  /// Overlapping pairs: two movable cells, or a movable cell and a fixed
  /// one reaching into the core (netlist::fixed_row_blocks).
  std::size_t overlaps = 0;
  std::size_t off_row = 0;         ///< cells not aligned to a row
  std::size_t off_site = 0;        ///< cells not aligned to the site grid
  std::size_t out_of_core = 0;     ///< cells sticking out of the core
  double total_overlap_area = 0.0;
  /// True when the overlap sweep stopped at its pair cap: `overlaps` and
  /// `total_overlap_area` are then lower bounds, not complete counts.
  bool overlap_truncated = false;

  bool legal() const {
    return overlaps == 0 && off_row == 0 && off_site == 0 && out_of_core == 0;
  }
};

/// One movable cell's row-grid, site-grid and core violations (within
/// `tolerance`): check_legality counts them, repair_legality rips up, and
/// the lint rules geom.in-core, legal.row-align and legal.site-align
/// report them.
struct CellLegality {
  bool off_row = false;
  bool off_site = false;
  bool out_of_core = false;

  bool legal() const { return !off_row && !off_site && !out_of_core; }
};

CellLegality cell_legality(const netlist::Netlist& netlist,
                           const netlist::Design& design,
                           const netlist::Placement& pl, netlist::CellId c,
                           double tolerance = 1e-6);

LegalityReport check_legality(const netlist::Netlist& netlist,
                              const netlist::Design& design,
                              const netlist::Placement& pl,
                              double tolerance = 1e-6);

/// One overlapping pair found by the row sweep: `a` is movable, `b` is
/// movable or a fixed cell in the core.
struct OverlapPair {
  netlist::CellId a = netlist::kInvalidId;
  netlist::CellId b = netlist::kInvalidId;
  double area = 0.0;
};

/// All pairs of overlapping cells, via a row-bucketed sweep (movable cells
/// are assigned to the row nearest their center; off-row cells are the
/// row-alignment check's problem). A fixed cell in the core takes part in
/// every row it blocks (netlist::fixed_row_blocks); two fixed cells never
/// make a pair. Collection stops after `max_pairs` so a fully collapsed
/// placement cannot produce a quadratic result list; when that cap fires,
/// `*truncated` (if non-null) is set so a capped sweep can't read as a
/// complete one.
std::vector<OverlapPair> overlap_pairs(const netlist::Netlist& netlist,
                                       const netlist::Design& design,
                                       const netlist::Placement& pl,
                                       double tolerance = 1e-6,
                                       std::size_t max_pairs = 100000,
                                       bool* truncated = nullptr);

/// Structure alignment quality of a placement, for one annotation.
///
/// For each group the score measures how tightly each bit slice hugs a
/// common row (y spread) and each stage hugs a common column (x spread),
/// normalized by row height; 0 = perfectly aligned arrays. Reported as the
/// mean RMS deviation in row-height units over all slices/stages. Bits
/// run along y, as the placer lays them out, so a group placed transposed
/// (its stages sharing rows) scores as misaligned.
struct AlignmentScore {
  double rms_misalignment = 0.0;  ///< mean RMS deviation, row heights
  double worst_group = 0.0;
};

AlignmentScore alignment_score(const netlist::Netlist& netlist,
                               const netlist::Placement& pl,
                               const netlist::StructureAnnotation& groups);

}  // namespace dp::eval
