#include "legal/rowmap.hpp"

#include <algorithm>

namespace dp::legal {

RowMap::RowMap(const netlist::Design& design) : design_(&design) {
  segments_.resize(design.num_rows());
  for (std::size_t r = 0; r < design.num_rows(); ++r) {
    const netlist::Row& row = design.row(r);
    segments_[r].push_back({row.lx, row.hx});
  }
}

RowMap::RowMap(const netlist::Design& design, const netlist::Netlist& nl,
               const netlist::Placement& pl)
    : RowMap(design) {
  for (const auto& b : netlist::fixed_row_blocks(nl, design, pl)) {
    block(b.row, b.lx, b.hx);
  }
}

void RowMap::block(std::size_t row, double lx, double hx) {
  if (hx <= lx) return;
  std::vector<Segment> next;
  next.reserve(segments_[row].size() + 1);
  for (const Segment& s : segments_[row]) {
    if (hx <= s.lx || lx >= s.hx) {
      next.push_back(s);
      continue;
    }
    if (lx > s.lx) next.push_back({s.lx, lx});
    if (hx < s.hx) next.push_back({hx, s.hx});
  }
  segments_[row] = std::move(next);
}

double RowMap::free_width(std::size_t row) const {
  double w = 0.0;
  for (const Segment& s : segments_[row]) w += s.width();
  return w;
}

bool RowMap::fits(std::size_t row, double lx, double hx, double tol) const {
  return std::any_of(
      segments_[row].begin(), segments_[row].end(),
      [&](const Segment& s) { return lx >= s.lx - tol && hx <= s.hx + tol; });
}

}  // namespace dp::legal
