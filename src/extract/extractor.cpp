#include "extract/extractor.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace dp::extract {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::NetId;
using netlist::PinDir;
using netlist::PinId;
using netlist::StructureGroup;

namespace {

/// Minimum lanes (bit count) of a seed column / reported group.
constexpr std::size_t kMinBits = 4;
/// Minimum stage columns of a reported group.
constexpr std::size_t kMinStages = 2;
/// Adjacency edges (for chains and growth) only through nets with at most
/// this many pins; larger nets are control/bus rails.
constexpr std::size_t kMaxNetDegree = 8;
/// Bus seeding considers shared nets with up to this many pins.
constexpr std::size_t kMaxBusDegree = 256;
/// A growth step is accepted when at least this fraction of lanes find a
/// matching next-stage cell (tolerates boundary irregularity).
constexpr double kGrowthTau = 0.7;
/// Cap on stage columns per group (runaway guard).
constexpr std::size_t kMaxStages = 512;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  a ^= b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2);
  return a;
}

/// A labeled adjacency edge: following `label` from the owning cell leads
/// uniquely to `to`. Labels encode (own port, far port, far signature) and
/// whether the edge advances toward outputs.
struct Edge {
  std::uint64_t label = 0;
  CellId to = kInvalidId;
  bool forward = false;  ///< own pin is an output (successor direction)
};

/// A candidate/accepted stage column: cells lane-by-lane (holes allowed).
struct Column {
  std::vector<CellId> cells;
  int offset = 0;

  std::size_t filled() const {
    std::size_t n = 0;
    for (CellId c : cells) {
      if (c != kInvalidId) ++n;
    }
    return n;
  }
};

}  // namespace

ExtractResult extract_structures(const netlist::Netlist& nl) {
  ExtractResult result;
  const std::size_t n = nl.num_cells();
  const auto sig = cell_signatures(nl);

  // ---- labeled adjacency with per-cell unique labels --------------------
  std::vector<std::vector<Edge>> adj(n);
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    const auto pins = nl.net_pins(net);
    if (pins.size() < 2 || pins.size() > kMaxNetDegree) continue;
    for (PinId p : pins) {
      const auto& pin = nl.pin(p);
      if (nl.cell(pin.cell).fixed) continue;
      for (PinId q : pins) {
        if (q == p) continue;
        const auto& other = nl.pin(q);
        if (nl.cell(other.cell).fixed) continue;
        // Labels carry the far cell's *function*, not its full signature:
        // signatures fragment at array boundaries (glue taps, pads), and a
        // fragmented target class would stall lockstep growth. Seeds stay
        // signature-strict; growth tolerates the noise.
        const std::uint64_t label =
            mix(mix(pin.port, std::uint64_t{other.port} * 2 + 1),
                static_cast<std::uint64_t>(nl.cell_type(other.cell).func));
        adj[pin.cell].push_back(
            {label, other.cell, pin.dir == PinDir::kOutput});
      }
    }
  }
  // Keep only labels that resolve to exactly one neighbor per cell.
  for (auto& edges : adj) {
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.label != b.label ? a.label < b.label : a.to < b.to;
    });
    std::vector<Edge> unique_edges;
    for (std::size_t i = 0; i < edges.size();) {
      std::size_t j = i;
      while (j < edges.size() && edges[j].label == edges[i].label) ++j;
      bool all_same = true;
      for (std::size_t k = i + 1; k < j; ++k) {
        if (edges[k].to != edges[i].to) {
          all_same = false;
          break;
        }
      }
      if (all_same) unique_edges.push_back(edges[i]);
      i = j;
    }
    edges = std::move(unique_edges);
  }
  // ---- seed discovery -----------------------------------------------------
  std::vector<Column> seeds;
  std::unordered_set<std::uint64_t> seen_seed_sets;
  auto register_seed = [&](std::vector<CellId> cells) {
    std::vector<CellId> sorted = cells;
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t h = 0x5EEDC01ULL;
    for (CellId c : sorted) h = mix(h, c);
    if (!seen_seed_sets.insert(h).second) return;
    seeds.push_back({std::move(cells), 0});
  };

  // (a) Chain paths: same-signature unique-label successor maps.
  {
    // chain key = (sig of both endpoints, label); value: u -> v.
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::unordered_map<CellId, CellId>>
        chains;
    for (CellId c = 0; c < n; ++c) {
      for (const Edge& e : adj[c]) {
        if (sig[e.to] == sig[c] && e.to != c) {
          chains[{sig[c], e.label}].emplace(c, e.to);
        }
      }
    }
    for (auto& [key, succ] : chains) {
      if (succ.size() + 1 < kMinBits) continue;
      std::unordered_map<CellId, int> indeg;
      for (auto& [u, v] : succ) ++indeg[v];
      for (auto& [u, v] : succ) {
        if (indeg.contains(u)) continue;  // not a path start
        std::vector<CellId> path{u};
        std::unordered_set<CellId> on_path{u};
        CellId cur = u;
        while (true) {
          auto it = succ.find(cur);
          if (it == succ.end()) break;
          cur = it->second;
          if (!on_path.insert(cur).second) break;  // cycle guard
          path.push_back(cur);
        }
        if (path.size() >= kMinBits) register_seed(std::move(path));
      }
    }
  }

  // (b) Bus columns: same-port same-signature sinks of one shared net.
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    const auto pins = nl.net_pins(net);
    if (pins.size() < kMinBits || pins.size() > kMaxBusDegree) continue;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<CellId>>
        by_role;
    for (PinId p : pins) {
      const auto& pin = nl.pin(p);
      if (nl.cell(pin.cell).fixed || pin.dir == PinDir::kOutput) continue;
      by_role[{pin.port, sig[pin.cell]}].push_back(pin.cell);
    }
    for (auto& [role, cells] : by_role) {
      if (cells.size() < kMinBits) continue;
      std::unordered_set<CellId> distinct(cells.begin(), cells.end());
      if (distinct.size() != cells.size()) continue;
      register_seed(cells);
    }
  }
  result.seeds_tried = seeds.size();

  // Longer seeds first: the strongest regularity claims its cells first.
  std::sort(seeds.begin(), seeds.end(), [](const Column& a, const Column& b) {
    return a.cells.size() > b.cells.size();
  });

  // ---- lockstep growth ----------------------------------------------------
  std::vector<bool> claimed(n, false);

  for (const Column& seed : seeds) {
    std::size_t free_cells = 0;
    for (CellId c : seed.cells) free_cells += claimed[c] ? 0u : 1u;
    if (free_cells < kMinBits) continue;

    const std::size_t lanes = seed.cells.size();
    std::vector<Column> columns;
    std::unordered_set<CellId> in_group;

    Column first = seed;
    for (CellId& c : first.cells) {
      if (claimed[c]) c = kInvalidId;  // hole where another group owns it
    }
    for (CellId c : first.cells) {
      if (c != kInvalidId) in_group.insert(c);
    }
    columns.push_back(std::move(first));

    std::vector<std::size_t> frontier{0};
    while (!frontier.empty() && columns.size() < kMaxStages) {
      std::vector<std::size_t> next_frontier;
      for (std::size_t ci : frontier) {
        // Tally label -> lane extensions from every lane of this column.
        std::map<std::uint64_t, std::vector<std::pair<std::size_t, CellId>>>
            tally;
        std::map<std::uint64_t, bool> tally_forward;
        const Column col = columns[ci];  // copy: columns grows below
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          const CellId c = col.cells[lane];
          if (c == kInvalidId) continue;
          for (const Edge& e : adj[c]) {
            if (claimed[e.to] || in_group.contains(e.to)) continue;
            tally[e.label].emplace_back(lane, e.to);
            tally_forward[e.label] = e.forward;
          }
        }
        const std::size_t active = col.filled();
        for (auto& [label, hits] : tally) {
          // A label accepted earlier in this wave may have claimed some of
          // these targets already; re-filter or cells would appear twice.
          std::erase_if(hits, [&](const std::pair<std::size_t, CellId>& h) {
            return claimed[h.second] || in_group.contains(h.second);
          });
          if (static_cast<double>(hits.size()) <
              kGrowthTau * static_cast<double>(active)) {
            continue;
          }
          if (hits.size() < kMinBits) continue;
          // Distinct targets, one per lane.
          std::unordered_set<CellId> targets;
          bool ok = true;
          for (auto& [lane, w] : hits) {
            if (!targets.insert(w).second) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          Column grown;
          grown.cells.assign(lanes, kInvalidId);
          for (auto& [lane, w] : hits) grown.cells[lane] = w;
          grown.offset = col.offset + (tally_forward[label] ? 1 : -1);
          for (CellId w : grown.cells) {
            if (w != kInvalidId) in_group.insert(w);
          }
          columns.push_back(std::move(grown));
          next_frontier.push_back(columns.size() - 1);
          if (columns.size() >= kMaxStages) break;
        }
        if (columns.size() >= kMaxStages) break;
      }
      frontier = std::move(next_frontier);
    }

    if (columns.size() < kMinStages) continue;

    // Assemble: stable-sort columns by offset, stages in that order.
    std::stable_sort(
        columns.begin(), columns.end(),
        [](const Column& a, const Column& b) { return a.offset < b.offset; });
    StructureGroup g = StructureGroup::make(
        "xg" + std::to_string(result.annotation.groups.size()), lanes,
        columns.size());
    std::size_t filled = 0;
    std::unordered_set<CellId> seen;
    for (std::size_t s = 0; s < columns.size(); ++s) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const CellId c = columns[s].cells[lane];
        // A cell must appear at most once per group (rigid-body movers
        // and the alignment gradients rely on it).
        if (c != kInvalidId && !seen.insert(c).second) {
          g.at(lane, s) = kInvalidId;
          continue;
        }
        g.at(lane, s) = c;
        if (c != kInvalidId) ++filled;
      }
    }
    if (filled < kMinBits * kMinStages) continue;
    for (CellId c : g.cells) {
      if (c != kInvalidId) claimed[c] = true;
    }
    result.annotation.groups.push_back(std::move(g));
  }

  return result;
}

}  // namespace dp::extract
