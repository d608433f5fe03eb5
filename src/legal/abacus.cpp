#include "legal/abacus.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dp::legal {

using netlist::CellId;

namespace {

struct RowCell {
  CellId cell = netlist::kInvalidId;
  double target_lx = 0.0;  ///< desired left edge
  double width = 0.0;
};

struct Cluster {
  double x = 0.0;  ///< left edge after collapse
  double e = 0.0;  ///< total weight
  double q = 0.0;  ///< weighted target sum
  double w = 0.0;  ///< total width
  std::size_t first = 0;  ///< index of first member in the segment cells
  std::size_t count = 0;
};

/// One free segment being filled: its own Abacus cluster chain.
struct SegState {
  double lx = 0.0, hx = 0.0;
  double used = 0.0;
  std::vector<RowCell> cells;
  std::vector<Cluster> clusters;
};

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

/// Insert `cell` at the end of `seg` (cells arrive in x order) and return
/// the resulting left edge of the inserted cell.
double place_in_segment(SegState& seg, const RowCell& cell) {
  const double e = 1.0;
  const std::size_t idx = seg.cells.size();
  seg.cells.push_back(cell);
  const double tx = std::clamp(cell.target_lx, seg.lx, seg.hx - cell.width);
  if (seg.clusters.empty() ||
      seg.clusters.back().x + seg.clusters.back().w <= tx) {
    seg.clusters.push_back({tx, e, e * tx, cell.width, idx, 1});
  } else {
    Cluster& last = seg.clusters.back();
    last.e += e;
    last.q += e * (tx - last.w);
    last.w += cell.width;
    last.count += 1;
  }
  collapse(seg.clusters, seg.lx, seg.hx);
  const Cluster& c = seg.clusters.back();
  return c.x + c.w - cell.width;
}

}  // namespace

AbacusLegalizer::AbacusLegalizer(const netlist::Netlist& nl,
                                 const netlist::Design& design)
    : nl_(&nl), design_(&design) {}

LegalizeStats AbacusLegalizer::run(netlist::Placement& pl,
                                   const std::vector<CellId>& cells,
                                   const RowMap& rows,
                                   std::vector<CellId>* failed) {
  LegalizeStats stats;
  const netlist::Design& design = *design_;
  const double site = design.site_width();
  const double core_lx = design.core().lx;

  // Materialize per-row segment states.
  std::vector<std::vector<SegState>> segs(rows.num_rows());
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    for (const Segment& s : rows.segments(r)) {
      SegState st;
      // Shrink to whole sites so the final snap stays inside.
      st.lx = core_lx + std::ceil((s.lx - core_lx) / site - 1e-9) * site;
      st.hx = core_lx + std::floor((s.hx - core_lx) / site + 1e-9) * site;
      if (st.hx - st.lx >= site) segs[r].push_back(st);
    }
  }

  std::vector<CellId> order = cells;
  std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
    return pl[a].x - nl_->cell_width(a) / 2.0 <
           pl[b].x - nl_->cell_width(b) / 2.0;
  });

  for (CellId c : order) {
    const double w = nl_->cell_width(c);
    const double h = nl_->cell_height(c);
    const RowCell rec{c, pl[c].x - w / 2.0, w};
    const double want_ly = pl[c].y - h / 2.0;

    double best_cost = std::numeric_limits<double>::infinity();
    SegState* best_seg = nullptr;

    for (std::size_t r = 0; r < segs.size(); ++r) {
      const double dy = design.row(r).y - want_ly;
      if (dy * dy >= best_cost) continue;
      for (SegState& seg : segs[r]) {
        if (seg.used + w > seg.hx - seg.lx + 1e-9) continue;
        // Quick bound: even a perfect x placement cannot beat best_cost.
        const double clamped =
            std::clamp(rec.target_lx, seg.lx, seg.hx - w);
        const double dx_min = clamped - rec.target_lx;
        if (dy * dy + dx_min * dx_min >= best_cost) continue;
        // Trial insertion on a scratch copy of the segment.
        SegState trial = seg;
        const double lx = place_in_segment(trial, rec);
        const double dx = lx - rec.target_lx;
        const double cost = dx * dx + dy * dy;
        if (cost < best_cost) {
          best_cost = cost;
          best_seg = &seg;
        }
      }
    }

    if (best_seg == nullptr) {
      ++stats.cells_failed;
      if (failed != nullptr) failed->push_back(c);
      continue;
    }
    place_in_segment(*best_seg, rec);
    best_seg->used += w;
  }

  // Final positions: walk clusters, snap origins down to the site grid
  // (monotone, preserves non-overlap; segment bounds are already on grid).
  for (std::size_t r = 0; r < segs.size(); ++r) {
    const netlist::Row& row = design.row(r);
    for (const SegState& seg : segs[r]) {
      for (const Cluster& cl : seg.clusters) {
        double cursor =
            core_lx + std::floor((cl.x - core_lx) / site + 1e-9) * site;
        cursor = std::max(cursor, seg.lx);
        for (std::size_t i = cl.first; i < cl.first + cl.count; ++i) {
          const RowCell& rc = seg.cells[i];
          const double new_cx = cursor + rc.width / 2.0;
          const double new_cy = row.y + nl_->cell_height(rc.cell) / 2.0;
          stats.record(new_cx - pl[rc.cell].x, new_cy - pl[rc.cell].y);
          pl[rc.cell] = {new_cx, new_cy};
          cursor += rc.width;
        }
      }
    }
  }
  return stats;
}

LegalizeStats AbacusLegalizer::run_all(netlist::Placement& pl) {
  std::vector<CellId> cells;
  for (CellId c = 0; c < nl_->num_cells(); ++c) {
    if (!nl_->cell(c).fixed) cells.push_back(c);
  }
  return run(pl, cells, RowMap(*design_, *nl_, pl));
}

}  // namespace dp::legal
