#include "timing/timing_graph.hpp"

#include <algorithm>

namespace dp::timing {

using netlist::CellFunc;
using netlist::CellId;
using netlist::NetId;
using netlist::PinDir;
using netlist::PinId;

TimingGraph::TimingGraph(const netlist::Netlist& nl) : nl_(&nl) {
  const std::size_t num_pins = nl.num_pins();

  // Collect arcs. Cell arcs: every connected input pin drives every
  // connected output pin of the same cell, except across sequential and
  // pad boundaries. Net arcs: driver to each input-direction sink.
  std::vector<Arc> arcs;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    const CellFunc func = nl.cell_type(c).func;
    if (func == CellFunc::kDff || func == CellFunc::kPad) continue;
    const auto pins = nl.cell_pins(c);
    for (const PinId in : pins) {
      if (nl.pin(in).dir != PinDir::kInput) continue;
      for (const PinId out : pins) {
        if (nl.pin(out).dir != PinDir::kOutput) continue;
        arcs.push_back({in, out, ArcKind::kCell, netlist::kInvalidId});
      }
    }
  }
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const PinId drv = nl.driver(n);
    if (drv == netlist::kInvalidId) continue;
    for (const PinId sink : nl.net_pins(n)) {
      if (nl.pin(sink).dir != PinDir::kInput) continue;
      arcs.push_back({drv, sink, ArcKind::kNet, n});
    }
  }

  // Fanin CSR (arcs sorted by destination, stable within a destination:
  // cell arcs in cell/pin order precede or follow net arcs in net order
  // exactly as collected above -- the critical-path tiebreak depends on
  // this order being deterministic, which counting sort preserves).
  fanin_first_.assign(num_pins + 1, 0);
  for (const Arc& a : arcs) ++fanin_first_[a.dst + 1];
  for (std::size_t p = 0; p < num_pins; ++p) {
    fanin_first_[p + 1] += fanin_first_[p];
  }
  arc_src_.resize(arcs.size());
  arc_kind_.resize(arcs.size());
  arc_net_.resize(arcs.size());
  {
    std::vector<std::uint32_t> fill(fanin_first_.begin(),
                                    fanin_first_.end() - 1);
    for (const Arc& a : arcs) {
      const std::uint32_t slot = fill[a.dst]++;
      arc_src_[slot] = a.src;
      arc_kind_[slot] = a.kind;
      arc_net_[slot] = a.net;
    }
  }

  // Fanout CSR, built from the fanin CSR so every entry can point back
  // at its fanin arc slot (destinations end up ascending per source).
  fanout_first_.assign(num_pins + 1, 0);
  for (const Arc& a : arcs) ++fanout_first_[a.src + 1];
  for (std::size_t p = 0; p < num_pins; ++p) {
    fanout_first_[p + 1] += fanout_first_[p];
  }
  fanout_dst_.resize(arcs.size());
  fanout_arc_.resize(arcs.size());
  {
    std::vector<std::uint32_t> fill(fanout_first_.begin(),
                                    fanout_first_.end() - 1);
    for (PinId dst = 0; dst < num_pins; ++dst) {
      for (std::uint32_t a = fanin_first_[dst]; a < fanin_first_[dst + 1];
           ++a) {
        const std::uint32_t slot = fill[arc_src_[a]]++;
        fanout_dst_[slot] = dst;
        fanout_arc_[slot] = a;
      }
    }
  }

  // Longest-path Kahn levelization: a pin is released once all fanin is
  // levelized, at level max(level(src)) + 1, so every arc strictly
  // crosses levels. Pins never released sit on or downstream of a cycle.
  level_.assign(num_pins, 0);
  std::vector<std::uint32_t> pending(num_pins);
  std::vector<PinId> frontier;
  for (PinId p = 0; p < num_pins; ++p) {
    pending[p] = fanin_first_[p + 1] - fanin_first_[p];
    if (pending[p] == 0) frontier.push_back(p);
  }
  order_.reserve(num_pins);
  while (!frontier.empty()) {
    // frontier holds exactly the pins of the next level, ascending by id
    // (sources release destinations in id order and we re-sort below to
    // keep the invariant under mixed release order).
    std::sort(frontier.begin(), frontier.end());
    order_.insert(order_.end(), frontier.begin(), frontier.end());
    ++num_levels_;
    std::vector<PinId> next;
    for (const PinId p : frontier) {
      for (std::size_t a = fanout_first_[p]; a < fanout_first_[p + 1]; ++a) {
        const PinId dst = fanout_dst_[a];
        level_[dst] = std::max(level_[dst], level_[p] + 1);
        if (--pending[dst] == 0) next.push_back(dst);
      }
    }
    frontier = std::move(next);
  }
  for (PinId p = 0; p < num_pins; ++p) {
    if (pending[p] > 0) {
      loop_pins_.push_back(p);
      level_[p] = 0;
    }
  }

  // Endpoints: input-direction pins of sequential and pad cells (DFF D
  // pins and primary-output pads), ascending by pin id.
  for (PinId p = 0; p < num_pins; ++p) {
    if (nl.pin(p).dir != PinDir::kInput) continue;
    const CellFunc func = nl.cell_type(nl.pin(p).cell).func;
    if (func == CellFunc::kDff || func == CellFunc::kPad) {
      endpoints_.push_back(p);
    }
  }
}

}  // namespace dp::timing
