#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace dp::timing {

/// Kind of a timing arc.
enum class ArcKind : std::uint8_t {
  kCell,  ///< input pin -> output pin of the same cell
  kNet,   ///< net driver pin -> sink pin
};

/// One directed timing arc between two pin-level nodes.
struct Arc {
  netlist::PinId src = netlist::kInvalidId;
  netlist::PinId dst = netlist::kInvalidId;
  ArcKind kind = ArcKind::kCell;
  /// Net carrying a kNet arc (kInvalidId for cell arcs).
  netlist::NetId net = netlist::kInvalidId;
};

/// Pin-level timing graph of a Netlist.
///
/// Nodes are pins. Cell arcs connect every input-direction pin of a cell
/// to every output-direction pin of the same cell (so a FullAdder fans
/// out to both S and CO), except for kDff and kPad cells, which are path
/// boundaries: a DFF D pin is a path endpoint and its Q pin a fresh
/// startpoint; pads have a single pin. Net arcs connect each net's driver
/// (its first output-direction pin) to every input-direction sink.
///
/// Construction levelizes the graph with a longest-path Kahn sweep:
/// level(dst) = max over fanin of level(src) + 1, so every arc strictly
/// crosses levels and the level order is a topological order. Pins that are
/// never released (members of a combinational cycle, plus everything
/// downstream of one) are excluded from the topological order and
/// reported through loop_pins().
class TimingGraph {
 public:
  explicit TimingGraph(const netlist::Netlist& nl);

  const netlist::Netlist& netlist() const { return *nl_; }

  std::size_t num_nodes() const { return level_.size(); }
  std::size_t num_arcs() const { return arc_src_.size(); }
  std::size_t num_levels() const { return num_levels_; }

  /// Pins in topological order, grouped by ascending level and by
  /// ascending pin id within a level; excludes loop pins.
  std::span<const netlist::PinId> order() const { return order_; }
  /// Level of a pin (0 for loop pins; check loop_pins() to distinguish).
  std::size_t level(netlist::PinId p) const { return level_[p]; }

  /// Pins on or downstream of a combinational cycle, ascending by id.
  std::span<const netlist::PinId> loop_pins() const { return loop_pins_; }
  bool has_loops() const { return !loop_pins_.empty(); }

  /// Path endpoints: input-direction pins of kDff and kPad cells,
  /// ascending by pin id (DFF D pins and primary-output pads).
  std::span<const netlist::PinId> endpoints() const { return endpoints_; }

  /// Fanin arcs of a pin: indices [fanin_first(p), fanin_first(p + 1))
  /// into arc_src()/arc_kind()/arc_net().
  std::size_t fanin_first(netlist::PinId p) const { return fanin_first_[p]; }
  std::span<const netlist::PinId> arc_src() const { return arc_src_; }
  std::span<const ArcKind> arc_kind() const { return arc_kind_; }
  std::span<const netlist::NetId> arc_net() const { return arc_net_; }

  /// Fanout adjacency: arc destinations grouped by source pin, ascending
  /// by destination. fanout_arc()[i] is the index of the same arc in the
  /// fanin arrays (arc_src()/arc_kind()/arc_net()), so per-arc delays
  /// computed in fanin order can be reused by backward sweeps.
  std::size_t fanout_first(netlist::PinId p) const {
    return fanout_first_[p];
  }
  std::span<const netlist::PinId> fanout_dst() const { return fanout_dst_; }
  std::span<const std::uint32_t> fanout_arc() const { return fanout_arc_; }

 private:
  const netlist::Netlist* nl_;

  // Fanin CSR: arcs sorted by destination pin.
  std::vector<std::uint32_t> fanin_first_;  ///< size num_pins + 1
  std::vector<netlist::PinId> arc_src_;
  std::vector<ArcKind> arc_kind_;
  std::vector<netlist::NetId> arc_net_;

  // Fanout CSR: destinations grouped by source pin.
  std::vector<std::uint32_t> fanout_first_;  ///< size num_pins + 1
  std::vector<netlist::PinId> fanout_dst_;
  std::vector<std::uint32_t> fanout_arc_;  ///< fanin arc index per entry

  std::vector<std::uint32_t> level_;  ///< longest-path level per pin
  std::vector<netlist::PinId> order_;
  std::size_t num_levels_ = 0;
  std::vector<netlist::PinId> loop_pins_;
  std::vector<netlist::PinId> endpoints_;
};

}  // namespace dp::timing
