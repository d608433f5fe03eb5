#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "netlist/netlist.hpp"

namespace dp::eval {

/// Incremental HPWL engine: a per-net bounding-box cache over a Placement
/// that makes candidate-move evaluation O(pins of the moved cells) instead
/// of O(pins of every incident net).
///
/// Each net caches its x/y extents plus the multiplicity of pins sitting
/// exactly on each extreme. A trial move then updates extents per axis in
/// O(1) per moved pin: removing a pin from an extreme just decrements its
/// count, and only when the count of an extreme drops to zero *and* the
/// moved pins do not re-establish it (a cached extreme pin moved inward)
/// is the net's pin list rescanned. For row-based detailed placement the
/// extreme pin of a net almost never moves inward past the second-extreme
/// pin, so rescans amortize to a small constant fraction of trials (the
/// `rescans()` counter makes the amortization observable).
///
/// Exactness contract: cached extents are min/max over exactly the same
/// pin coordinates (`pl[cell] + offset`) that `eval::net_hpwl` scans, so
/// every cached per-net HPWL is bitwise identical to a fresh
/// `eval::net_hpwl` call, and `resync_total()` -- which re-sums the cached
/// values in net-id order, the same order `eval::hpwl` uses -- is bitwise
/// identical to a full `eval::hpwl` recompute. The running `total()` is
/// maintained by per-commit deltas, deterministic for identical move
/// sequences, and drifts from the full recompute only by accumulated
/// rounding of the deltas; callers resync at natural barriers (e.g. once
/// per detailed-placement pass) to clamp the drift to zero.
///
/// The engine holds a non-const reference to the placement: `commit()`
/// applies the staged trial to it. Cells passed to any call must be
/// distinct.
class IncrementalHpwl {
 public:
  IncrementalHpwl(const netlist::Netlist& nl, netlist::Placement& pl);

  /// Running weighted total, maintained across commits.
  double total() const { return total_; }

  /// Recompute the running total from the cached per-net extents, summing
  /// in ascending net order. Bitwise identical to `eval::hpwl` on the
  /// current placement; O(nets), no pin scan.
  double resync_total();

  /// Cached weighted-unweighted HPWL of one net; bitwise identical to
  /// `eval::net_hpwl`.
  double net_hpwl(netlist::NetId n) const {
    const NetBox& b = boxes_[n];
    if (nl_->net(n).pins.size() < 2) return 0.0;
    return (b.max_x - b.min_x) + (b.max_y - b.min_y);
  }

  /// Result of a staged trial: the weighted HPWL of the incident nets
  /// before and after the candidate move, summed in ascending net order.
  struct Trial {
    double before = 0.0;
    double after = 0.0;
    double delta() const { return after - before; }
  };

  /// Stage a rigid translation of `cells` by (dx, dy). Nothing is written
  /// to the placement; follow with commit() or rollback(). Candidate pin
  /// coordinates are computed as `(pl[c] + d) + offset`, matching what a
  /// plain `pl[c] += d` mutation followed by a rescan would see.
  Trial trial_shift(std::span<const netlist::CellId> cells, double dx,
                    double dy);

  /// Stage an absolute repositioning: cell `cells[k]`'s center moves to
  /// `centers[k]`.
  Trial trial_place(std::span<const netlist::CellId> cells,
                    std::span<const geom::Point> centers);

  /// Calls `f(net, before, after)` for every net of the staged trial, in
  /// ascending net order: the net's cached HPWL and its HPWL with the
  /// staged move applied, each bitwise identical to `eval::net_hpwl` on
  /// the placement without and with the move. Valid only while a trial is
  /// staged (between trial_shift/trial_place and commit/rollback).
  template <typename F>
  void for_each_staged_net(F&& f) const {
    for (const StagedNet& sn : staged_nets_) {
      f(sn.net, net_hpwl(sn.net), box_hpwl(sn.net, sn.box));
    }
  }

  /// Apply the staged trial: mutate the placement (`+= d` for shifts,
  /// assignment for placements), update the cached extents, and advance
  /// the running total by the staged delta.
  void commit();

  /// Discard the staged trial. The placement was never touched.
  void rollback() { staged_ = false; }

  /// Full net rescans triggered by extreme pins moving inward.
  std::size_t rescans() const { return rescans_; }

 private:
  /// Cached extents of one net with extreme-pin multiplicities.
  struct NetBox {
    double min_x = 0.0, max_x = 0.0;
    double min_y = 0.0, max_y = 0.0;
    std::uint32_t n_min_x = 0, n_max_x = 0;
    std::uint32_t n_min_y = 0, n_max_y = 0;
  };

  struct StagedPin {
    netlist::NetId net = 0;
    netlist::PinId pin = 0;
    double new_x = 0.0, new_y = 0.0;
  };

  struct StagedNet {
    netlist::NetId net = 0;
    NetBox box;
  };

  enum class Mode { kShift, kPlace };

  /// Per-net accumulator filled in one pass over the staged pins: how many
  /// pins survive on each cached extreme once the moved pins' old
  /// coordinates are removed, and the extents (with multiplicities) of the
  /// moved pins' candidate coordinates.
  struct NetAcc {
    std::uint32_t rest_min_x = 0, rest_max_x = 0;
    std::uint32_t rest_min_y = 0, rest_max_y = 0;
    double add_min_x = 0.0, add_max_x = 0.0;
    double add_min_y = 0.0, add_max_y = 0.0;
    std::uint32_t an_min_x = 0, an_max_x = 0;
    std::uint32_t an_min_y = 0, an_max_y = 0;
    std::uint32_t moved = 0;
  };

  void rebuild();
  Trial stage(std::span<const netlist::CellId> cells, Mode mode, double dx,
              double dy, std::span<const geom::Point> centers);
  NetBox resolve_net(netlist::NetId n, const netlist::Net& net,
                     const NetAcc& a);
  double box_hpwl(netlist::NetId n, const NetBox& b) const {
    if (nl_->net(n).pins.size() < 2) return 0.0;
    return (b.max_x - b.min_x) + (b.max_y - b.min_y);
  }

  const netlist::Netlist* nl_;
  netlist::Placement* pl_;

  /// Cached absolute pin coordinates; invariant: bitwise equal to
  /// `nl.pin_position(p, pl)` at all times outside a staged trial.
  std::vector<double> pin_x_, pin_y_;
  std::vector<NetBox> boxes_;
  double total_ = 0.0;

  /// Epoch + accumulator-slot stamp of one net, packed so a trial's
  /// slot lookup touches a single cache line per net.
  struct NetStamp {
    std::uint32_t epoch = 0;
    std::uint32_t slot = 0;
  };

  /// Epoch-stamped moving-set membership and per-net accumulator slots
  /// (no per-trial clearing).
  std::vector<std::uint32_t> cell_epoch_;
  std::vector<NetStamp> net_stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<NetAcc> accs_;
  std::vector<netlist::NetId> trial_nets_;

  // Staged trial state.
  bool staged_ = false;
  Mode mode_ = Mode::kShift;
  double dx_ = 0.0, dy_ = 0.0;
  std::vector<netlist::CellId> staged_cells_;
  std::vector<geom::Point> staged_centers_;
  std::vector<StagedPin> staged_pins_;
  std::vector<StagedNet> staged_nets_;
  double stage_before_ = 0.0, stage_after_ = 0.0;

  std::size_t rescans_ = 0;
};

}  // namespace dp::eval
