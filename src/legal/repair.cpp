#include "legal/repair.hpp"

#include <algorithm>
#include <vector>

#include "eval/metrics.hpp"
#include "legal/abacus.hpp"
#include "legal/rowmap.hpp"
#include "util/logger.hpp"

namespace dp::legal {

using netlist::CellId;

std::size_t repair_legality(const netlist::Netlist& nl,
                            const netlist::Design& design,
                            netlist::Placement& pl) {
  const double tol = 1e-6;

  // Classify: victims = cells violating any constraint, a fixed cell's
  // block included. Overlap pairs keep the earlier (left) cell in place.
  struct Placed {
    double lx, hx;
    CellId cell;
  };
  std::vector<std::vector<Placed>> rows(design.num_rows());
  std::vector<CellId> victims;
  // Free space = core minus the fixed cells in it, then minus every legally
  // placed cell.
  RowMap free_map(design, nl, pl);

  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (nl.cell(c).fixed) continue;
    if (!eval::cell_legality(nl, design, pl, c, tol).legal()) {
      victims.push_back(c);
      continue;
    }
    const double w = nl.cell_width(c);
    const double lx = pl[c].x - w / 2.0;
    rows[design.nearest_row(pl[c].y)].push_back({lx, lx + w, c});
  }

  for (std::size_t r = 0; r < rows.size(); ++r) {
    auto& row = rows[r];
    std::sort(row.begin(), row.end(),
              [](const Placed& a, const Placed& b) { return a.lx < b.lx; });
    double frontier = -1e300;
    for (auto& p : row) {
      if (p.lx < frontier - tol || !free_map.fits(r, p.lx, p.hx, tol)) {
        victims.push_back(p.cell);
        p.cell = netlist::kInvalidId;  // excluded from the free-space map
      } else {
        frontier = p.hx;
      }
    }
  }
  if (victims.empty()) return 0;

  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const Placed& p : rows[r]) {
      if (p.cell != netlist::kInvalidId) free_map.block(r, p.lx, p.hx);
    }
  }

  const std::size_t failed =
      AbacusLegalizer(nl, design).run(pl, victims, free_map).cells_failed;
  if (failed > 0) {
    util::Logger::warn("repair_legality: %zu cells could not be placed",
                       failed);
  }
  return victims.size();
}

}  // namespace dp::legal
