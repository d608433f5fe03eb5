#include "netlist/netlist.hpp"

#include <stdexcept>

namespace dp::netlist {

namespace {

/// Fills `first`/`list` with a stable counting sort of the pins by their
/// `owner` (cell or net): owner o's pins are `list[first[o] .. first[o+1])`
/// in ascending PinId order.
void fill_csr(const std::vector<Pin>& pins, std::size_t owners,
              std::uint32_t Pin::*owner, std::vector<std::uint32_t>& first,
              std::vector<PinId>& list) {
  first.assign(owners + 1, 0);
  for (const Pin& p : pins) ++first[p.*owner + 1];
  for (std::size_t o = 0; o < owners; ++o) first[o + 1] += first[o];
  std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
  list.resize(pins.size());
  for (PinId p = 0; p < pins.size(); ++p) list[next[pins[p].*owner]++] = p;
}

template <typename T>
std::size_t spare(const std::vector<T>& v) {
  return v.capacity() - v.size();
}

}  // namespace

PinId Netlist::driver(NetId id) const {
  for (PinId p : net_pins(id)) {
    if (pins_[p].dir == PinDir::kOutput) return p;
  }
  return kInvalidId;
}

double Netlist::movable_area() const {
  double area = 0.0;
  for (CellId c = 0; c < cells_.size(); ++c) {
    if (!cells_[c].fixed) area += cell_area(c);
  }
  return area;
}

std::size_t Netlist::num_movable() const {
  std::size_t n = 0;
  for (const Cell& c : cells_) {
    if (!c.fixed) ++n;
  }
  return n;
}

std::size_t Netlist::spare_capacity() const {
  return spare(cells_) + spare(nets_) + spare(pins_) + spare(cell_first_) +
         spare(net_first_) + spare(cell_pins_) + spare(net_pins_);
}

CellId NetlistBuilder::add_cell(std::string name, CellTypeId type,
                                bool fixed) {
  if (type >= netlist_.library().size()) {
    throw std::out_of_range("NetlistBuilder::add_cell: bad cell type id");
  }
  Cell c;
  c.name = std::move(name);
  c.type = type;
  c.fixed = fixed;
  netlist_.cells_.push_back(std::move(c));
  last_cell_pin_.push_back(kInvalidId);
  return static_cast<CellId>(netlist_.cells_.size() - 1);
}

CellId NetlistBuilder::add_cell(std::string name, CellFunc func, bool fixed) {
  return add_cell(std::move(name), netlist_.library().by_func(func), fixed);
}

NetId NetlistBuilder::add_net(std::string name, double weight) {
  Net n;
  n.name = std::move(name);
  n.weight = weight;
  netlist_.nets_.push_back(std::move(n));
  return static_cast<NetId>(netlist_.nets_.size() - 1);
}

PinId NetlistBuilder::connect(CellId cell, std::uint16_t port, NetId net) {
  if (cell >= last_cell_pin_.size()) {
    throw std::out_of_range("NetlistBuilder::connect: bad cell id");
  }
  return bind(cell, port, net);
}

PinId NetlistBuilder::bind(CellId cell, std::uint16_t port, NetId net) {
  const CellType& type = netlist_.cell_type(cell);
  if (port >= type.pins.size()) {
    throw std::out_of_range("NetlistBuilder::connect: bad port index");
  }
  // take() files the pin under its net, so the id must name one.
  if (net >= netlist_.num_nets()) {
    throw std::out_of_range("NetlistBuilder::connect: bad net id");
  }
  for (PinId q = last_cell_pin_[cell]; q != kInvalidId;
       q = prev_cell_pin_[q]) {
    if (netlist_.pins_[q].port == port) {
      throw std::logic_error("NetlistBuilder::connect: port already bound on " +
                             netlist_.cells_[cell].name);
    }
  }
  const PinSpec& spec = type.pins[port];
  Pin p;
  p.cell = cell;
  p.net = net;
  p.dir = spec.dir;
  p.offset_x = spec.offset_x;
  p.offset_y = spec.offset_y;
  p.port = port;
  netlist_.pins_.push_back(p);
  const auto pin_id = static_cast<PinId>(netlist_.pins_.size() - 1);
  prev_cell_pin_.push_back(last_cell_pin_[cell]);
  last_cell_pin_[cell] = pin_id;
  return pin_id;
}

PinId NetlistBuilder::connect_dir(CellId cell, std::uint16_t port, NetId net,
                                  PinDir dir) {
  const PinId id = connect(cell, port, net);
  netlist_.pins_[id].dir = dir;
  return id;
}

PinId NetlistBuilder::connect(CellId cell, const std::string& port_name,
                              NetId net) {
  if (cell >= last_cell_pin_.size()) {
    throw std::out_of_range("NetlistBuilder::connect: bad cell id");
  }
  const CellType& type = netlist_.cell_type(cell);
  for (std::size_t i = 0; i < type.pins.size(); ++i) {
    if (type.pins[i].name == port_name) {
      return bind(cell, static_cast<std::uint16_t>(i), net);
    }
  }
  throw std::out_of_range("NetlistBuilder::connect: no port named " +
                          port_name + " on type " + type.name);
}

Netlist NetlistBuilder::take() {
  Netlist& nl = netlist_;
  fill_csr(nl.pins_, nl.cells_.size(), &Pin::cell, nl.cell_first_,
           nl.cell_pins_);
  fill_csr(nl.pins_, nl.nets_.size(), &Pin::net, nl.net_first_,
           nl.net_pins_);
  nl.cells_.shrink_to_fit();
  nl.nets_.shrink_to_fit();
  nl.pins_.shrink_to_fit();
  last_cell_pin_ = {};
  prev_cell_pin_ = {};
  return std::move(nl);
}

}  // namespace dp::netlist
