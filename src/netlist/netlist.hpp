#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "netlist/library.hpp"

namespace dp::netlist {

using CellId = std::uint32_t;
using NetId = std::uint32_t;
using PinId = std::uint32_t;

inline constexpr std::uint32_t kInvalidId =
    std::numeric_limits<std::uint32_t>::max();

/// A cell instance. Geometry comes from its CellType; position lives in a
/// separate Placement vector so optimizers can treat coordinates as dense
/// arrays, and its pins are Netlist::cell_pins().
struct Cell {
  std::string name;
  CellTypeId type = 0;
  bool fixed = false;
};

/// A pin instance: the junction between one cell and one net.
struct Pin {
  /// Offset from the cell center, copied from the PinSpec at creation.
  double offset_x = 0.0;
  double offset_y = 0.0;
  CellId cell = kInvalidId;
  NetId net = kInvalidId;
  /// Index of the pin within its cell type (the "port"); extraction keys
  /// fan-out traversal on this.
  std::uint16_t port = 0;
  PinDir dir = PinDir::kInput;
};
static_assert(sizeof(Pin) == 32, "a Pin packs into 32 bytes");

/// A signal net connecting two or more pins (Netlist::net_pins()).
struct Net {
  std::string name;
  double weight = 1.0;
};

/// Cell positions (centers), indexed by CellId.
using Placement = std::vector<geom::Point>;

/// The flat gate-level netlist: a pin-based hypergraph over a Library.
///
/// Topology is append-only: cells/nets/pins are created through
/// NetlistBuilder (or the Bookshelf reader) and never removed, so all ids
/// stay stable for the lifetime of the netlist. The cell->pin and net->pin
/// lists are two CSR arrays that NetlistBuilder::take() fills: the pins of
/// cell c are `cell_pins_[cell_first_[c] .. cell_first_[c + 1])`, and each
/// list is ascending by PinId, which is the order the builder connected
/// them in.
class Netlist {
 public:
  /// Non-owning: `library` must outlive the netlist (e.g. the static
  /// standard_library()).
  explicit Netlist(const Library& library)
      : library_(&library, [](const Library*) {}) {}

  /// Owning: the netlist shares ownership of a dynamically built library
  /// (e.g. from the Bookshelf reader).
  explicit Netlist(std::shared_ptr<const Library> library)
      : library_(std::move(library)) {}

  const Library& library() const { return *library_; }

  const Cell& cell(CellId id) const { return cells_[id]; }
  const Net& net(NetId id) const { return nets_[id]; }
  const Pin& pin(PinId id) const { return pins_[id]; }

  /// The pins of a cell / of a net, ascending by PinId.
  std::span<const PinId> cell_pins(CellId id) const {
    return pin_list(cell_first_, cell_pins_, id);
  }
  std::span<const PinId> net_pins(NetId id) const {
    return pin_list(net_first_, net_pins_, id);
  }

  std::size_t num_cells() const { return cells_.size(); }
  std::size_t num_nets() const { return nets_.size(); }
  std::size_t num_pins() const { return pins_.size(); }

  std::span<const Cell> cells() const { return cells_; }
  std::span<const Net> nets() const { return nets_; }
  std::span<const Pin> pins() const { return pins_; }

  const CellType& cell_type(CellId id) const {
    return library_->type(cells_[id].type);
  }
  double cell_width(CellId id) const { return cell_type(id).width; }
  double cell_height(CellId id) const { return cell_type(id).height; }
  double cell_area(CellId id) const {
    const auto& t = cell_type(id);
    return t.width * t.height;
  }

  /// Absolute position of a pin given a placement of cell centers.
  geom::Point pin_position(PinId id, const Placement& pl) const {
    const Pin& p = pins_[id];
    return {pl[p.cell].x + p.offset_x, pl[p.cell].y + p.offset_y};
  }

  /// Driver pin of a net (first output-direction pin), or kInvalidId.
  PinId driver(NetId id) const;

  /// Total area of movable cells.
  double movable_area() const;

  /// Number of movable (non-fixed) cells.
  std::size_t num_movable() const;

  /// Override a pin's offset from its cell center. Needed by file readers
  /// whose formats carry per-instance (not per-type) pin offsets.
  void set_pin_offset(PinId id, double offset_x, double offset_y) {
    pins_[id].offset_x = offset_x;
    pins_[id].offset_y = offset_y;
  }

  /// Element slots allocated but unused across the record and CSR arrays;
  /// NetlistBuilder::take() leaves none.
  std::size_t spare_capacity() const;

 private:
  friend class NetlistBuilder;
  friend class NetlistSurgeon;

  static std::span<const PinId> pin_list(
      const std::vector<std::uint32_t>& first, const std::vector<PinId>& pins,
      std::uint32_t id) {
    return {pins.data() + first[id], first[id + 1] - first[id]};
  }

  std::shared_ptr<const Library> library_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<Pin> pins_;
  std::vector<std::uint32_t> cell_first_, net_first_;
  std::vector<PinId> cell_pins_, net_pins_;
};

/// Deliberate-corruption escape hatch: mutable access to the topology
/// records that are otherwise append-only behind NetlistBuilder. Exists so
/// the check/ subsystem's tests can break referential integrity on purpose
/// (dangling pin ids, flipped directions, bad weights) and assert the
/// matching rule fires, and so the density tests can fix cells in place.
/// Production code must never use this — src/check exists to catch
/// exactly the states it can create.
class NetlistSurgeon {
 public:
  explicit NetlistSurgeon(Netlist& netlist) : netlist_(&netlist) {}

  Cell& cell(CellId id) { return netlist_->cells_[id]; }
  Net& net(NetId id) { return netlist_->nets_[id]; }
  Pin& pin(PinId id) { return netlist_->pins_[id]; }

 private:
  Netlist* netlist_;
};

/// Incrementally constructs a Netlist. Used by the benchmark generator and
/// the Bookshelf reader. Pin lists exist only once take() has built them,
/// so the builder offers no view of the netlist under construction.
class NetlistBuilder {
 public:
  explicit NetlistBuilder(const Library& library) : netlist_(library) {}
  explicit NetlistBuilder(std::shared_ptr<const Library> library)
      : netlist_(std::move(library)) {}

  /// Throws std::out_of_range on a type id outside the library.
  CellId add_cell(std::string name, CellTypeId type, bool fixed = false);
  CellId add_cell(std::string name, CellFunc func, bool fixed = false);

  NetId add_net(std::string name, double weight = 1.0);

  /// Connect pin `port` (index into the cell type's pin list) of `cell`
  /// to `net`. Each cell port may be connected at most once. Throws
  /// std::out_of_range on a cell or net never added or a port past the
  /// type's pins, and std::logic_error on a port already bound.
  PinId connect(CellId cell, std::uint16_t port, NetId net);

  /// Connect by port name (slower; used by readers and tests).
  PinId connect(CellId cell, const std::string& port_name, NetId net);

  /// Connect with an explicit direction override. Used for PAD instances,
  /// whose single pin acts as a driver on input pads and a sink on output
  /// pads.
  PinId connect_dir(CellId cell, std::uint16_t port, NetId net, PinDir dir);

  std::size_t num_cells() const { return netlist_.num_cells(); }
  std::size_t num_nets() const { return netlist_.num_nets(); }

  /// Finalize: build the pin lists and trim every array to its size. The
  /// builder must not be used afterwards.
  Netlist take();

 private:
  /// connect() once the cell id is known to be valid.
  PinId bind(CellId cell, std::uint16_t port, NetId net);

  Netlist netlist_;
  /// Per cell, the last pin connected to it, and per pin, the pin of the
  /// same cell connected before it (kInvalidId ends a chain): connect()
  /// walks a cell's chain to refuse a port bound twice.
  std::vector<PinId> last_cell_pin_;
  std::vector<PinId> prev_cell_pin_;
};

}  // namespace dp::netlist
