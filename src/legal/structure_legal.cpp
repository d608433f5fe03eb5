#include "legal/structure_legal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "eval/metrics.hpp"
#include "legal/abacus.hpp"

namespace dp::legal {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::StructureGroup;

namespace {

/// One horizontal row unit of a chunk: the cells sharing a row, with x
/// offsets from the unit's left edge (shared across units, so columns
/// align).
struct RowUnit {
  std::vector<CellId> cells;
  std::vector<double> offsets;
  double mean_y = 0.0;
  bool occupied = false;
};

/// A contiguous span of a group's stage columns, packed as one rectangle.
struct Chunk {
  std::vector<RowUnit> units;
  double width = 0.0;
  double desired_cx = 0.0;
  double desired_cy = 0.0;
  /// True when lane index should grow downward (the global placement
  /// settled the array with lane 0 on top); the packer must not flip it.
  bool lanes_descending = false;
};

/// Decompose a group into chunks of consecutive stage columns, each at
/// most `max_width` wide (a single column may exceed it; it forms its own
/// chunk). Each bit slice of a chunk is one row unit.
std::vector<Chunk> make_chunks(const netlist::Netlist& nl,
                               const StructureGroup& g,
                               const netlist::Placement& pl,
                               double max_width) {
  std::vector<double> col_width(g.stages, 0.0);
  for (std::size_t col = 0; col < g.stages; ++col) {
    for (std::size_t bit = 0; bit < g.bits; ++bit) {
      const CellId c = g.at(bit, col);
      if (c != kInvalidId) {
        col_width[col] = std::max(col_width[col], nl.cell_width(c));
      }
    }
  }

  std::vector<Chunk> chunks;
  std::size_t col = 0;
  while (col < g.stages) {
    // Greedy span of columns fitting in max_width.
    std::size_t end = col;
    double width = 0.0;
    while (end < g.stages &&
           (end == col || width + col_width[end] <= max_width)) {
      width += col_width[end];
      ++end;
    }

    // Stage direction: mirror column offsets if the placement settled the
    // span right-to-left.
    double first_x = 0.0, last_x = 0.0;
    bool have_x = false;
    for (std::size_t c2 = col; c2 < end; ++c2) {
      double sx = 0.0;
      std::size_t nx = 0;
      for (std::size_t bit = 0; bit < g.bits; ++bit) {
        const CellId c = g.at(bit, c2);
        if (c != kInvalidId) {
          sx += pl[c].x;
          ++nx;
        }
      }
      if (nx == 0) continue;
      if (!have_x) {
        first_x = sx / static_cast<double>(nx);
        have_x = true;
      }
      last_x = sx / static_cast<double>(nx);
    }
    const bool cols_descending = have_x && last_x < first_x;

    Chunk chunk;
    chunk.width = width;
    double sum_cx = 0.0, sum_cy = 0.0;
    std::size_t count = 0;
    for (std::size_t bit = 0; bit < g.bits; ++bit) {
      RowUnit unit;
      double off = 0.0;
      double sy = 0.0;
      for (std::size_t c2 = col; c2 < end; ++c2) {
        const CellId c = g.at(bit, c2);
        if (c != kInvalidId) {
          const double center = off + nl.cell_width(c) / 2.0;
          unit.cells.push_back(c);
          unit.offsets.push_back(cols_descending ? width - center : center);
          sum_cx += pl[c].x;
          sy += pl[c].y;
          ++count;
        }
        off += col_width[c2];
      }
      if (!unit.cells.empty()) {
        unit.mean_y = sy / static_cast<double>(unit.cells.size());
        unit.occupied = true;
        sum_cy += unit.mean_y;
      }
      chunk.units.push_back(std::move(unit));
    }
    if (count > 0) {
      std::size_t occupied_units = 0;
      double first_y = 0.0, last_y = 0.0;
      bool have_y = false;
      for (const RowUnit& u : chunk.units) {
        if (!u.occupied) continue;
        ++occupied_units;
        if (!have_y) {
          first_y = u.mean_y;
          have_y = true;
        }
        last_y = u.mean_y;
      }
      chunk.lanes_descending = have_y && last_y < first_y;
      chunk.desired_cx = sum_cx / static_cast<double>(count);
      chunk.desired_cy = sum_cy / static_cast<double>(occupied_units);
      chunks.push_back(std::move(chunk));
    }
    col = end;
  }
  return chunks;
}

/// Intersection of free segments across rows [row0, row0 + rows_needed).
std::vector<Segment> intersect_rows(const RowMap& rows, std::size_t row0,
                                    std::size_t rows_needed) {
  std::vector<Segment> acc = rows.segments(row0);
  for (std::size_t r = row0 + 1; r < row0 + rows_needed; ++r) {
    const auto& other = rows.segments(r);
    std::vector<Segment> next;
    std::size_t i = 0, j = 0;
    while (i < acc.size() && j < other.size()) {
      const double lo = std::max(acc[i].lx, other[j].lx);
      const double hi = std::min(acc[i].hx, other[j].hx);
      if (lo < hi) next.push_back({lo, hi});
      if (acc[i].hx < other[j].hx) {
        ++i;
      } else {
        ++j;
      }
    }
    acc = std::move(next);
    if (acc.empty()) break;
  }
  return acc;
}

}  // namespace

StructureLegalizer::StructureLegalizer(
    const netlist::Netlist& nl, const netlist::Design& design,
    const netlist::StructureAnnotation& groups)
    : nl_(&nl), design_(&design), groups_(&groups) {}

StructureLegalizeStats StructureLegalizer::run(netlist::Placement& pl) {
  StructureLegalizeStats stats;
  const netlist::Design& design = *design_;
  const double site = design.site_width();
  const double core_lx = design.core().lx;
  const double max_chunk_w = design.core().width() * 0.3;
  const netlist::Placement pl_before = pl;

  // A chunk committed to a concrete window.
  struct PlacedChunk {
    Chunk chunk;
    std::size_t row0 = 0;
    double x = 0.0;  ///< left edge of the first strip
    std::size_t fold_rows = 1;
    std::size_t strips = 1;

    /// Row and left edge of unit `u`: strips of `fold_rows` units side by
    /// side, lanes top-down within a strip when they descend.
    std::pair<std::size_t, double> slot(std::size_t u) const {
      const std::size_t pos = u % fold_rows;
      return {row0 + (chunk.lanes_descending ? fold_rows - 1 - pos : pos),
              x + chunk.width * static_cast<double>(u / fold_rows)};
    }
  };
  std::vector<PlacedChunk> committed;

  auto fold_of = [&](const Chunk& chunk) {
    return std::min(std::max<std::size_t>(chunk.units.size(), 1),
                    design.num_rows());
  };
  auto strips_of = [&](const Chunk& chunk) {
    const std::size_t fold = fold_of(chunk);
    return (chunk.units.size() + fold - 1) / fold;
  };

  // Free-space map with the fixed cells and every committed chunk
  // (optionally minus one) blocked out.
  const RowMap fixed_rows(design, *nl_, pl);
  auto build_rows = [&](const PlacedChunk* skip) {
    RowMap rows = fixed_rows;
    for (const PlacedChunk& pc : committed) {
      if (&pc == skip) continue;
      for (std::size_t u = 0; u < pc.chunk.units.size(); ++u) {
        const auto [r, ux] = pc.slot(u);
        rows.block(r, ux, ux + pc.chunk.width);
      }
    }
    return rows;
  };

  // Nearest feasible window for `chunk` around (cx, cy) in `rows`.
  struct Window {
    std::size_t row0 = 0;
    double x = 0.0;
  };
  auto find_window = [&](const Chunk& chunk, const RowMap& rows, double cx,
                         double cy) -> std::optional<Window> {
    const std::size_t fold_rows = fold_of(chunk);
    const double full_w =
        chunk.width * static_cast<double>(strips_of(chunk));
    const long long max_row0 = static_cast<long long>(design.num_rows()) -
                               static_cast<long long>(fold_rows);
    if (max_row0 < 0) return std::nullopt;
    const std::size_t want_row0 = design.nearest_row(
        cy - static_cast<double>(fold_rows) / 2.0 * design.row_height());

    for (long long delta = 0; delta <= max_row0; ++delta) {
      for (const long long sign : {1LL, -1LL}) {
        if (delta == 0 && sign < 0) continue;
        const long long r0 = static_cast<long long>(want_row0) + sign * delta;
        if (r0 < 0 || r0 > max_row0) continue;
        const auto row0 = static_cast<std::size_t>(r0);
        const auto free = intersect_rows(rows, row0, fold_rows);
        const double want_lx = cx - full_w / 2.0;
        double best_x = 0.0;
        double best_d = std::numeric_limits<double>::infinity();
        for (const Segment& s : free) {
          if (s.width() + 1e-9 < full_w) continue;
          double x = std::clamp(want_lx, s.lx, s.hx - full_w);
          x = core_lx + std::ceil((x - core_lx) / site - 1e-9) * site;
          if (x + full_w > s.hx + 1e-9) x -= site;
          if (x < s.lx - 1e-9) continue;
          const double d = std::abs(x - want_lx);
          if (d < best_d) {
            best_d = d;
            best_x = x;
          }
        }
        if (std::isfinite(best_d)) return Window{row0, best_x};
      }
    }
    return std::nullopt;
  };

  // Cell centers of a chunk at its current (row0, x), staged in
  // chunk_cells / chunk_centers: written into pl on commit, or scored as
  // a whole-plate relocation first.
  std::vector<CellId> chunk_cells;
  std::vector<geom::Point> chunk_centers;
  auto chunk_targets = [&](const PlacedChunk& pc) {
    chunk_cells.clear();
    chunk_centers.clear();
    for (std::size_t u = 0; u < pc.chunk.units.size(); ++u) {
      const RowUnit& unit = pc.chunk.units[u];
      const auto [r, ux] = pc.slot(u);
      const double uy = design.row(r).y + design.row_height() / 2.0;
      for (std::size_t k = 0; k < unit.cells.size(); ++k) {
        chunk_cells.push_back(unit.cells[k]);
        chunk_centers.push_back({ux + unit.offsets[k], uy});
      }
    }
  };

  // Centroid of the pins of chunk nets that are not on chunk cells: the
  // wirelength-ideal neighborhood of the plate.
  auto external_centroid = [&](const Chunk& chunk, geom::Point fallback) {
    std::vector<bool> mine(nl_->num_cells(), false);
    for (const RowUnit& unit : chunk.units) {
      for (CellId c : unit.cells) mine[c] = true;
    }
    double sx = 0.0, sy = 0.0;
    std::size_t n = 0;
    for (const RowUnit& unit : chunk.units) {
      for (CellId c : unit.cells) {
        for (netlist::PinId p : nl_->cell(c).pins) {
          for (netlist::PinId q : nl_->net(nl_->pin(p).net).pins) {
            const CellId oc = nl_->pin(q).cell;
            if (mine[oc]) continue;
            const geom::Point pos = nl_->pin_position(q, pl);
            sx += pos.x;
            sy += pos.y;
            ++n;
          }
        }
      }
    }
    if (n == 0) return fallback;
    return geom::Point{sx / static_cast<double>(n),
                       sy / static_cast<double>(n)};
  };

  // ---- build chunks and discover chains from connectivity ---------------
  // Chunks connected by many nets (pipeline bundles between consecutive
  // units, or between spans cut from one parent) must be placed adjacent:
  // a scrambled order multiplies every bundle by the plate spacing. The
  // heavy-edge graph over chunks is built from the netlist and decomposed
  // into paths greedily; each path is then placed as a snake.
  struct FlatChunk {
    std::size_t group = 0;
    Chunk chunk;
  };
  std::vector<FlatChunk> flat;
  for (std::size_t gi = 0; gi < groups_->groups.size(); ++gi) {
    for (Chunk& c : make_chunks(*nl_, groups_->groups[gi], pl, max_chunk_w)) {
      flat.push_back({gi, std::move(c)});
    }
  }

  // Connectivity between chunks, directed driver -> sink. The directed
  // flow recovers the true pipeline order even when a unit fans out to
  // several downstream units (greedy heavy-edge pathing cannot).
  std::vector<int> chunk_of_cell(nl_->num_cells(), -1);
  for (std::size_t k = 0; k < flat.size(); ++k) {
    for (const RowUnit& u : flat[k].chunk.units) {
      for (CellId c : u.cells) chunk_of_cell[c] = static_cast<int>(k);
    }
  }
  std::map<std::pair<int, int>, std::size_t> flow;  // directed weights
  for (netlist::NetId n = 0; n < nl_->num_nets(); ++n) {
    const auto& pins = nl_->net(n).pins;
    if (pins.size() < 2 || pins.size() > 64) continue;
    const netlist::PinId drv = nl_->driver(n);
    if (drv == netlist::kInvalidId) continue;
    const int src = chunk_of_cell[nl_->pin(drv).cell];
    if (src < 0) continue;
    for (netlist::PinId p : pins) {
      if (p == drv) continue;
      const int dst = chunk_of_cell[nl_->pin(p).cell];
      if (dst < 0 || dst == src) continue;
      ++flow[{src, dst}];
    }
  }

  // Net forward flow and undirected components.
  std::map<std::pair<int, int>, long long> net_flow;
  std::vector<std::vector<std::size_t>> neighbors(flat.size());
  for (const auto& [key, w] : flow) {
    if (w < 4) continue;
    const auto rev = std::make_pair(key.second, key.first);
    const std::size_t back = flow.contains(rev) ? flow.at(rev) : 0;
    if (w > back) {
      net_flow[key] = static_cast<long long>(w - back);
    }
    neighbors[static_cast<std::size_t>(key.first)].push_back(
        static_cast<std::size_t>(key.second));
    neighbors[static_cast<std::size_t>(key.second)].push_back(
        static_cast<std::size_t>(key.first));
  }

  // Components, each ordered by (longest-path level in the flow DAG,
  // then desired x) -- the snaking sequence.
  std::vector<std::vector<std::size_t>> paths;
  {
    std::vector<bool> visited(flat.size(), false);
    for (std::size_t k = 0; k < flat.size(); ++k) {
      if (visited[k]) continue;
      std::vector<std::size_t> comp;
      std::vector<std::size_t> stack{k};
      visited[k] = true;
      while (!stack.empty()) {
        const std::size_t cur = stack.back();
        stack.pop_back();
        comp.push_back(cur);
        for (std::size_t nb : neighbors[cur]) {
          if (!visited[nb]) {
            visited[nb] = true;
            stack.push_back(nb);
          }
        }
      }
      // Longest-path levels within the component (bounded relaxation;
      // registers make real pipelines acyclic, the cap guards the rest).
      std::map<std::size_t, long long> level;
      for (std::size_t c : comp) level[c] = 0;
      for (std::size_t iter = 0; iter < comp.size() + 2; ++iter) {
        bool changed = false;
        for (const auto& [key, w] : net_flow) {
          const auto a = static_cast<std::size_t>(key.first);
          const auto b = static_cast<std::size_t>(key.second);
          if (!level.contains(a) || !level.contains(b)) continue;
          if (level[b] < level[a] + 1) {
            level[b] = level[a] + 1;
            changed = true;
          }
        }
        if (!changed) break;
      }
      std::sort(comp.begin(), comp.end(), [&](std::size_t a, std::size_t b) {
        if (level[a] != level[b]) return level[a] < level[b];
        return flat[a].chunk.desired_cx < flat[b].chunk.desired_cx;
      });
      paths.push_back(std::move(comp));
    }
  }

  // Lane direction must be consistent across a component: a flipped plate
  // makes every bundle net to its neighbours zigzag the plate height.
  for (const auto& path : paths) {
    std::size_t desc = 0;
    for (std::size_t k : path) {
      desc += flat[k].chunk.lanes_descending ? 1u : 0u;
    }
    const bool dir = 2 * desc > path.size();
    for (std::size_t k : path) flat[k].chunk.lanes_descending = dir;
  }

  std::sort(paths.begin(), paths.end(),
            [&](const std::vector<std::size_t>& a,
                const std::vector<std::size_t>& b) {
              std::size_t ca = 0, cb = 0;
              for (std::size_t k : a) {
                for (const RowUnit& u : flat[k].chunk.units) {
                  ca += u.cells.size();
                }
              }
              for (std::size_t k : b) {
                for (const RowUnit& u : flat[k].chunk.units) {
                  cb += u.cells.size();
                }
              }
              return ca > cb;
            });

  // ---- chain-aware block placement ---------------------------------------
  std::vector<bool> placed(nl_->num_cells(), false);
  RowMap rows(design);
  std::vector<bool> group_ok(groups_->groups.size(), true);

  auto commit = [&](Chunk&& chunk, const Window& wnd) -> std::size_t {
    PlacedChunk pc;
    pc.chunk = std::move(chunk);
    pc.row0 = wnd.row0;
    pc.x = wnd.x;
    pc.fold_rows = fold_of(pc.chunk);
    pc.strips = strips_of(pc.chunk);
    chunk_targets(pc);
    for (std::size_t k = 0; k < chunk_cells.size(); ++k) {
      pl[chunk_cells[k]] = chunk_centers[k];
      placed[chunk_cells[k]] = true;
    }
    committed.push_back(std::move(pc));
    rows = build_rows(nullptr);
    return committed.size() - 1;
  };

  // Place one chunk near (cx, cy), splitting into lane bands on failure.
  auto place_with_split = [&](Chunk&& first, double cx, double cy,
                              std::size_t gi) -> std::optional<std::size_t> {
    std::vector<Chunk> work;
    work.push_back(std::move(first));
    std::optional<std::size_t> last;
    while (!work.empty()) {
      Chunk chunk = std::move(work.back());
      work.pop_back();
      const auto wnd = find_window(chunk, rows, cx, cy);
      if (wnd) {
        last = commit(std::move(chunk), *wnd);
        continue;
      }
      if (chunk.units.size() >= 8) {
        const std::size_t half = chunk.units.size() / 2;
        for (int part = 0; part < 2; ++part) {
          Chunk sub;
          sub.width = chunk.width;
          sub.lanes_descending = chunk.lanes_descending;
          const std::size_t begin = part == 0 ? 0 : half;
          const std::size_t end_u = part == 0 ? half : chunk.units.size();
          for (std::size_t u = begin; u < end_u; ++u) {
            sub.units.push_back(chunk.units[u]);
          }
          sub.desired_cx = chunk.desired_cx;
          sub.desired_cy = chunk.desired_cy;
          work.push_back(std::move(sub));
        }
        continue;
      }
      group_ok[gi] = false;
    }
    return last;
  };

  for (const auto& path : paths) {
    std::optional<std::size_t> prev;
    for (std::size_t k : path) {
      FlatChunk& fc = flat[k];
      const double w = fc.chunk.width;
      const double h = static_cast<double>(fc.chunk.units.size()) *
                       design.row_height();
      if (!prev) {
        const double cx = fc.chunk.desired_cx;
        const double cy = fc.chunk.desired_cy;
        prev = place_with_split(std::move(fc.chunk), cx, cy, fc.group);
        continue;
      }
      // Candidate anchors adjacent to the previous committed piece.
      const PlacedChunk& pp = committed[*prev];
      const double pw = pp.chunk.width * static_cast<double>(pp.strips);
      const double ph =
          static_cast<double>(std::min(pp.chunk.units.size(),
                                       pp.fold_rows)) *
          design.row_height();
      const double pcx = pp.x + pw / 2.0;
      const double pcy = design.row(pp.row0).y + ph / 2.0;
      struct Cand {
        double cx, cy;
      };
      const Cand cands[] = {
          {pcx + pw / 2.0 + w / 2.0, pcy},  // right
          {pcx - pw / 2.0 - w / 2.0, pcy},  // left
          {pcx, pcy + ph / 2.0 + h / 2.0},  // above
          {pcx, pcy - ph / 2.0 - h / 2.0},  // below
      };
      double best_cost = std::numeric_limits<double>::infinity();
      std::optional<Window> best_wnd;
      for (const Cand& cand : cands) {
        const auto wnd = find_window(fc.chunk, rows, cand.cx, cand.cy);
        if (!wnd) continue;
        const double fold = static_cast<double>(
            std::min<std::size_t>(fc.chunk.units.size(), design.num_rows()));
        const double acx =
            wnd->x +
            fc.chunk.width * static_cast<double>(strips_of(fc.chunk)) / 2.0;
        const double acy =
            design.row(wnd->row0).y + fold * design.row_height() / 2.0;
        const double cost = std::abs(acx - cand.cx) + std::abs(acy - cand.cy);
        if (cost < best_cost) {
          best_cost = cost;
          best_wnd = wnd;
        }
      }
      if (best_wnd) {
        prev = commit(std::move(fc.chunk), *best_wnd);
      } else {
        const double cx = fc.chunk.desired_cx;
        const double cy = fc.chunk.desired_cy;
        prev = place_with_split(std::move(fc.chunk), cx, cy, fc.group);
      }
    }
  }
  for (std::size_t gi = 0; gi < group_ok.size(); ++gi) {
    if (group_ok[gi]) {
      ++stats.groups_placed_as_blocks;
    } else {
      ++stats.groups_fallback;
    }
  }

  // ---- wirelength-driven plate improvement ----------------------------------
  // Greedy relocation: move each plate to the nearest feasible window
  // around the centroid of its external connections; commit only on real
  // HPWL gain. This is what rescues plates the window search had to exile
  // far from their logic.
  // A relocation is scored over the nets of the chunk's cells (internal
  // nets are invariant under whole-chunk translation, so including them
  // is harmless).
  eval::MoveScorer plate_move(*nl_, pl);
  for (int pass = 0; pass < 3; ++pass) {
    bool improved = false;
    for (PlacedChunk& pc : committed) {
      const geom::Point want = external_centroid(
          pc.chunk, {pc.chunk.desired_cx, pc.chunk.desired_cy});
      const RowMap trial_rows = build_rows(&pc);
      const auto window = find_window(pc.chunk, trial_rows, want.x, want.y);
      if (!window) continue;
      const std::size_t saved_row0 = pc.row0;
      const double saved_x = pc.x;
      pc.row0 = window->row0;
      pc.x = window->x;
      chunk_targets(pc);
      const auto s = plate_move.move(chunk_cells, chunk_centers);
      if (s.after + 1e-9 < s.before) {
        improved = true;
      } else {
        plate_move.undo();
        pc.row0 = saved_row0;
        pc.x = saved_x;
      }
    }
    if (!improved) break;
  }

  // Record slice displacement against the pre-legalization placement.
  for (const PlacedChunk& pc : committed) {
    for (const RowUnit& unit : pc.chunk.units) {
      for (CellId c : unit.cells) {
        stats.slices.record(pl[c].x - pl_before[c].x,
                            pl[c].y - pl_before[c].y);
      }
    }
  }

  // ---- glue and the cells of chunks no window held --------------------------
  // Cells the plate-blocked free space cannot hold keep their positions;
  // repair_legality places them into the space the plates leave free
  // cell by cell.
  std::vector<CellId> rest;
  for (CellId c = 0; c < nl_->num_cells(); ++c) {
    if (!nl_->cell(c).fixed && !placed[c]) rest.push_back(c);
  }
  stats.rest =
      AbacusLegalizer(*nl_, design).run(pl, rest, build_rows(nullptr));
  return stats;
}

}  // namespace dp::legal
