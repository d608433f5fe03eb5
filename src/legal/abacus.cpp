#include "legal/abacus.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dp::legal {

using netlist::CellId;

namespace {

using Cluster = AbacusSegment::Cluster;

void collapse(std::vector<Cluster>& cs, double lo, double hi) {
  while (true) {
    Cluster& c = cs.back();
    c.x = std::clamp(c.q / c.e, lo, hi - c.w);
    if (cs.size() < 2) return;
    Cluster& pred = cs[cs.size() - 2];
    if (pred.x + pred.w <= c.x + 1e-12) return;
    pred.e += c.e;
    pred.q += c.q - c.e * pred.w;
    pred.w += c.w;
    pred.count += c.count;
    cs.pop_back();
  }
}

}  // namespace

double AbacusSegment::insert(const Cell& cell) {
  const double e = 1.0;
  const std::size_t idx = cells.size();
  cells.push_back(cell);
  used += cell.width;
  const double tx = std::clamp(cell.target_lx, lx, hx - cell.width);
  if (clusters.empty() || clusters.back().x + clusters.back().w <= tx) {
    clusters.push_back({tx, e, e * tx, cell.width, idx, 1});
  } else {
    Cluster& last = clusters.back();
    last.e += e;
    last.q += e * (tx - last.w);
    last.w += cell.width;
    last.count += 1;
  }
  collapse(clusters, lx, hx);
  const Cluster& c = clusters.back();
  return c.x + c.w - cell.width;
}

double AbacusSegment::trial(const Cell& cell) const {
  const double e = 1.0;
  const double tx = std::clamp(cell.target_lx, lx, hx - cell.width);
  // (ce, cq, cw): the last cluster as insert() and collapse() build it;
  // clusters[0, k) are the ones before it, untouched so far.
  std::size_t k = clusters.size();
  double ce = e, cq = e * tx, cw = cell.width;
  if (k > 0 && clusters[k - 1].x + clusters[k - 1].w > tx) {
    const Cluster& last = clusters[--k];
    ce = last.e + e;
    cq = last.q + e * (tx - last.w);
    cw = last.w + cell.width;
  }
  while (true) {
    const double x = std::clamp(cq / ce, lx, hx - cw);
    if (k == 0 || clusters[k - 1].x + clusters[k - 1].w <= x + 1e-12) {
      return x + cw - cell.width;
    }
    const Cluster& pred = clusters[--k];
    cq = pred.q + (cq - ce * pred.w);
    ce = pred.e + ce;
    cw = pred.w + cw;
  }
}

std::vector<CellId> abacus(const netlist::Netlist& nl,
                           const netlist::Design& design,
                           netlist::Placement& pl,
                           const std::vector<CellId>& cells,
                           const RowMap& rows) {
  std::vector<CellId> failed;
  const double site = design.site_width();
  const double core_lx = design.core().lx;

  // Materialize per-row segment states.
  std::vector<std::vector<AbacusSegment>> segs(rows.num_rows());
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    for (const Segment& s : rows.segments(r)) {
      AbacusSegment st;
      // Shrink to whole sites so the final snap stays inside.
      st.lx = core_lx + std::ceil((s.lx - core_lx) / site - 1e-9) * site;
      st.hx = core_lx + std::floor((s.hx - core_lx) / site + 1e-9) * site;
      if (st.hx - st.lx >= site) segs[r].push_back(st);
    }
  }

  std::vector<CellId> order = cells;
  std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
    return pl[a].x - nl.cell_width(a) / 2.0 <
           pl[b].x - nl.cell_width(b) / 2.0;
  });

  for (CellId c : order) {
    const double w = nl.cell_width(c);
    const double h = nl.cell_height(c);
    const AbacusSegment::Cell rec{c, pl[c].x - w / 2.0, w};
    const double want_ly = pl[c].y - h / 2.0;

    double best_cost = std::numeric_limits<double>::infinity();
    AbacusSegment* best_seg = nullptr;

    for (std::size_t r = 0; r < segs.size(); ++r) {
      const double dy = design.row(r).y - want_ly;
      if (dy * dy >= best_cost) continue;
      for (AbacusSegment& seg : segs[r]) {
        if (seg.used + w > seg.hx - seg.lx + 1e-9) continue;
        // Quick bound: even a perfect x placement cannot beat best_cost.
        const double clamped =
            std::clamp(rec.target_lx, seg.lx, seg.hx - w);
        const double dx_min = clamped - rec.target_lx;
        if (dy * dy + dx_min * dx_min >= best_cost) continue;
        const double dx = seg.trial(rec) - rec.target_lx;
        const double cost = dx * dx + dy * dy;
        if (cost < best_cost) {
          best_cost = cost;
          best_seg = &seg;
        }
      }
    }

    if (best_seg == nullptr) {
      failed.push_back(c);
      continue;
    }
    best_seg->insert(rec);
  }

  // Final positions: walk clusters, snap origins down to the site grid
  // (monotone, preserves non-overlap; segment bounds are already on grid).
  for (std::size_t r = 0; r < segs.size(); ++r) {
    const netlist::Row& row = design.row(r);
    for (const AbacusSegment& seg : segs[r]) {
      for (const Cluster& cl : seg.clusters) {
        double cursor =
            core_lx + std::floor((cl.x - core_lx) / site + 1e-9) * site;
        cursor = std::max(cursor, seg.lx);
        for (std::size_t i = cl.first; i < cl.first + cl.count; ++i) {
          const AbacusSegment::Cell& rc = seg.cells[i];
          pl[rc.cell] = {cursor + rc.width / 2.0,
                         row.y + nl.cell_height(rc.cell) / 2.0};
          cursor += rc.width;
        }
      }
    }
  }
  return failed;
}

std::vector<CellId> abacus_all(const netlist::Netlist& nl,
                               const netlist::Design& design,
                               netlist::Placement& pl) {
  std::vector<CellId> cells;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (!nl.cell(c).fixed) cells.push_back(c);
  }
  return abacus(nl, design, pl, cells, RowMap(design, nl, pl));
}

}  // namespace dp::legal
