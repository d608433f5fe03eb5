#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "geom/rect.hpp"

namespace dp::eval {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;

double net_hpwl(const netlist::Netlist& nl, NetId net,
                const netlist::Placement& pl) {
  const auto& pins = nl.net(net).pins;
  if (pins.size() < 2) return 0.0;
  geom::Rect box;
  for (PinId p : pins) box.expand(nl.pin_position(p, pl));
  return box.half_perimeter();
}

double hpwl(const netlist::Netlist& nl, const netlist::Placement& pl) {
  double total = 0.0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    total += nl.net(n).weight * net_hpwl(nl, n, pl);
  }
  return total;
}

MoveScorer::Score MoveScorer::move(std::span<const CellId> cells,
                                   std::span<const geom::Point> centers) {
  nets_.clear();
  for (CellId c : cells) {
    for (PinId p : nl_->cell(c).pins) nets_.push_back({nl_->pin(p).net});
  }
  std::sort(nets_.begin(), nets_.end(),
            [](const NetChange& a, const NetChange& b) {
              return a.net < b.net;
            });
  nets_.erase(std::unique(nets_.begin(), nets_.end(),
                          [](const NetChange& a, const NetChange& b) {
                            return a.net == b.net;
                          }),
              nets_.end());
  for (NetChange& nc : nets_) nc.before = net_hpwl(*nl_, nc.net, *pl_);
  saved_.clear();
  for (std::size_t k = 0; k < cells.size(); ++k) {
    saved_.push_back({cells[k], (*pl_)[cells[k]]});
    (*pl_)[cells[k]] = centers[k];
  }
  Score s;
  for (NetChange& nc : nets_) {
    nc.after = net_hpwl(*nl_, nc.net, *pl_);
    const double w = nl_->net(nc.net).weight;
    s.before += w * nc.before;
    s.after += w * nc.after;
  }
  return s;
}

void MoveScorer::undo() {
  for (const auto& [cell, pos] : saved_) (*pl_)[cell] = pos;
}

double datapath_hpwl(const netlist::Netlist& nl, const netlist::Placement& pl,
                     const netlist::StructureAnnotation& groups) {
  const auto member = groups.membership(nl.num_cells());
  double total = 0.0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    bool touches = false;
    for (PinId p : nl.net(n).pins) {
      if (member[nl.pin(p).cell]) {
        touches = true;
        break;
      }
    }
    if (touches) total += nl.net(n).weight * net_hpwl(nl, n, pl);
  }
  return total;
}

namespace {

struct Placed {
  double lx, hx;
  CellId cell;
  bool fixed = false;
};

/// Movable cells bucketed by the row nearest their center, plus the rows'
/// netlist::fixed_row_blocks, sorted by left edge. Shared by
/// check_legality and overlap_pairs.
std::vector<std::vector<Placed>> bucket_by_row(const netlist::Netlist& nl,
                                               const netlist::Design& design,
                                               const netlist::Placement& pl,
                                               double tolerance) {
  std::vector<std::vector<Placed>> rows(design.num_rows());
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (nl.cell(c).fixed) continue;
    const double w = nl.cell_width(c);
    const double lx = pl[c].x - w / 2.0;
    const std::size_t r = design.nearest_row(pl[c].y);
    rows[r].push_back({lx, lx + w, c});
  }
  for (const netlist::RowBlock& b :
       netlist::fixed_row_blocks(nl, design, pl, tolerance)) {
    rows[b.row].push_back({b.lx, b.hx, b.cell, /*fixed=*/true});
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end(),
              [](const Placed& a, const Placed& b) { return a.lx < b.lx; });
  }
  return rows;
}

}  // namespace

std::vector<OverlapPair> overlap_pairs(const netlist::Netlist& nl,
                                       const netlist::Design& design,
                                       const netlist::Placement& pl,
                                       double tolerance,
                                       std::size_t max_pairs,
                                       bool* truncated) {
  std::vector<OverlapPair> pairs;
  if (truncated != nullptr) *truncated = false;
  const auto rows = bucket_by_row(nl, design, pl, tolerance);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      for (std::size_t j = i + 1; j < row.size(); ++j) {
        const double ov = row[i].hx - row[j].lx;
        if (ov <= tolerance) break;  // sorted by lx: nothing further overlaps
        if (row[i].fixed && row[j].fixed) continue;
        const double width = std::min(ov, row[j].hx - row[j].lx);
        // The movable cell first, so a diagnostic anchors on it.
        const bool swap = row[i].fixed;
        pairs.push_back({swap ? row[j].cell : row[i].cell,
                         swap ? row[i].cell : row[j].cell,
                         width * design.row_height()});
        if (pairs.size() >= max_pairs) {
          if (truncated != nullptr) *truncated = true;
          return pairs;
        }
      }
    }
  }
  return pairs;
}

CellLegality cell_legality(const netlist::Netlist& nl,
                           const netlist::Design& design,
                           const netlist::Placement& pl, CellId c,
                           double tolerance) {
  const geom::Rect& core = design.core();
  const double w = nl.cell_width(c);
  const double h = nl.cell_height(c);
  const double lx = pl[c].x - w / 2.0;
  const double ly = pl[c].y - h / 2.0;
  const double row_rel = (ly - core.ly) / design.row_height();
  const double site_rel = (lx - core.lx) / design.site_width();
  return {std::abs(row_rel - std::round(row_rel)) > tolerance,
          std::abs(site_rel - std::round(site_rel)) > tolerance,
          lx < core.lx - tolerance || lx + w > core.hx + tolerance ||
              ly < core.ly - tolerance || ly + h > core.hy + tolerance};
}

LegalityReport check_legality(const netlist::Netlist& nl,
                              const netlist::Design& design,
                              const netlist::Placement& pl, double tolerance) {
  LegalityReport rep;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (nl.cell(c).fixed) continue;
    const CellLegality cl = cell_legality(nl, design, pl, c, tolerance);
    rep.off_row += cl.off_row;
    rep.off_site += cl.off_site;
    rep.out_of_core += cl.out_of_core;
  }

  for (const OverlapPair& p : overlap_pairs(nl, design, pl, tolerance,
                                            /*max_pairs=*/100000,
                                            &rep.overlap_truncated)) {
    ++rep.overlaps;
    rep.total_overlap_area += p.area;
  }
  return rep;
}

namespace {

/// RMS of deviations from the mean, for one coordinate of a cell set.
double rms_spread(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double acc = 0.0;
  for (double x : xs) acc += (x - mean) * (x - mean);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

/// Mean RMS misalignment of a group: the y spread of each bit slice and
/// the x spread of each stage.
double group_misalignment(const netlist::StructureGroup& g,
                          const netlist::Placement& pl) {
  double acc = 0.0;
  std::size_t terms = 0;
  auto add_line = [&](const std::vector<double>& coord) {
    if (coord.size() < 2) return;
    acc += rms_spread(coord);
    ++terms;
  };
  for (std::size_t b = 0; b < g.bits; ++b) {
    std::vector<double> ys;
    for (CellId c : g.slice(b)) ys.push_back(pl[c].y);
    add_line(ys);
  }
  for (std::size_t s = 0; s < g.stages; ++s) {
    std::vector<double> xs;
    for (CellId c : g.stage(s)) xs.push_back(pl[c].x);
    add_line(xs);
  }
  return terms == 0 ? 0.0 : acc / static_cast<double>(terms);
}

}  // namespace

AlignmentScore alignment_score(const netlist::Netlist& nl,
                               const netlist::Placement& pl,
                               const netlist::StructureAnnotation& groups) {
  AlignmentScore score;
  if (groups.groups.empty()) return score;
  double acc = 0.0;
  for (const auto& g : groups.groups) {
    const double m = group_misalignment(g, pl) / netlist::kRowHeight;
    acc += m;
    score.worst_group = std::max(score.worst_group, m);
  }
  score.rms_misalignment = acc / static_cast<double>(groups.groups.size());
  (void)nl;
  return score;
}

}  // namespace dp::eval
