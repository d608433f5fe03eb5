#include "detail/detailed_placer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "eval/metrics.hpp"
#include "util/timer.hpp"

namespace dp::detail {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::NetId;
using netlist::PinId;

namespace {

constexpr int kNoUnit = -1;
/// Entry::unit of a fixed cell's row block: an interval nothing moves.
constexpr int kFixed = -2;

/// The pass loop stops once a full pass improves HPWL by less than this
/// relative amount.
constexpr double kRelImprovementFloor = 1e-4;

/// One occupied interval of a row: a single free cell, a whole datapath
/// slice treated as an indivisible pseudo-cell, or a fixed cell's block.
struct Entry {
  double lx = 0.0;
  double width = 0.0;
  CellId cell = kInvalidId;  ///< valid iff unit == kNoUnit
  int unit = kNoUnit;

  double hx() const { return lx + width; }
};

/// A datapath row unit: member cells moving rigidly together.
struct Unit {
  std::vector<CellId> cells;
};

/// The detailed placer's engine. Every candidate move is applied and
/// scored by eval::MoveScorer, then kept or undone; each pass ends with a
/// full eval::hpwl for the stop test.
class Engine {
 public:
  Engine(const netlist::Netlist& nl, const netlist::Design& design,
         netlist::Placement& pl, const std::vector<Unit>& units,
         const DetailOptions& options)
      : nl_(&nl),
        design_(&design),
        pl_(&pl),
        units_(&units),
        options_(&options),
        scorer_(nl, pl),
        moving_epoch_(nl.num_cells(), 0) {
    build_rows();
  }

  DetailStats optimize() {
    DetailStats stats;
    stats.hpwl_before = eval::hpwl(*nl_, *pl_);
    double current = stats.hpwl_before;
    // Runs one pass, counted and timed in `prof`.
    auto timed_pass = [](PassProfile& prof, auto&& pass) {
      util::Timer t;
      ++prof.passes;
      pass();
      prof.seconds += t.seconds();
    };
    for (std::size_t pass = 0; pass < options_->max_passes; ++pass) {
      timed_pass(profile_.slide, [&] { slide_pass(); });
      timed_pass(profile_.swap, [&] { swap_pass(); });
      timed_pass(profile_.unit_slide, [&] { unit_slide_pass(); });
      const double next = eval::hpwl(*nl_, *pl_);
      const bool converged =
          current - next <= kRelImprovementFloor * current;
      current = next;
      if (converged) break;
    }
    stats.hpwl_after = current;
    stats.profile = profile_;
    return stats;
  }

 private:
  void build_rows() {
    rows_.assign(design_->num_rows(), {});
    std::vector<bool> in_unit(nl_->num_cells(), false);
    for (std::size_t u = 0; u < units_->size(); ++u) {
      const Unit& unit = (*units_)[u];
      if (unit.cells.empty()) continue;
      double lo = std::numeric_limits<double>::infinity(), hi = -lo;
      for (CellId c : unit.cells) {
        in_unit[c] = true;
        lo = std::min(lo, (*pl_)[c].x - nl_->cell_width(c) / 2.0);
        hi = std::max(hi, (*pl_)[c].x + nl_->cell_width(c) / 2.0);
      }
      const std::size_t r = design_->nearest_row((*pl_)[unit.cells[0]].y);
      rows_[r].push_back({lo, hi - lo, kInvalidId, static_cast<int>(u)});
    }
    for (CellId c = 0; c < nl_->num_cells(); ++c) {
      if (nl_->cell(c).fixed || in_unit[c]) continue;
      const double w = nl_->cell_width(c);
      const std::size_t r = design_->nearest_row((*pl_)[c].y);
      rows_[r].push_back({(*pl_)[c].x - w / 2.0, w, c, kNoUnit});
    }
    for (const netlist::RowBlock& b :
         netlist::fixed_row_blocks(*nl_, *design_, *pl_)) {
      rows_[b.row].push_back({b.lx, b.hx - b.lx, kInvalidId, kFixed});
    }
    for (auto& row : rows_) {
      std::sort(row.begin(), row.end(),
                [](const Entry& a, const Entry& b) { return a.lx < b.lx; });
      // Safety net: entries that overlap a predecessor or a fixed block
      // (possible when the incoming placement is not perfectly legal) are
      // removed from the row model -- their cells keep their positions and
      // are never moved, so the detailer cannot make things worse. Fixed
      // blocks always stay; overlapping ones merge into one.
      std::vector<Entry> clean;
      clean.reserve(row.size());
      for (const Entry& e : row) {
        const bool fixed = e.unit == kFixed;
        while (fixed && !clean.empty() && clean.back().unit != kFixed &&
               clean.back().hx() > e.lx + 1e-9) {
          clean.pop_back();
        }
        if (!clean.empty() && clean.back().hx() > e.lx + 1e-9) {
          if (fixed) {
            clean.back().width = std::max(clean.back().hx(), e.hx()) -
                                 clean.back().lx;
          }
          continue;
        }
        clean.push_back(e);
      }
      row = std::move(clean);
    }
  }

  /// Breakpoint-median optimal x for a rigid set of cells, where cell k
  /// sits at (X + rel[k]) for block coordinate X. Returns the midpoint of
  /// the optimal interval, or NaN if the set has no external nets.
  double optimal_position(const std::vector<CellId>& cells,
                          const std::vector<double>& rel) {
    // Epoch-stamp the moving set so the membership test inside the pin
    // loop is O(1) instead of a scan of the whole set per pin.
    ++moving_stamp_;
    if (moving_stamp_ == 0) {
      std::fill(moving_epoch_.begin(), moving_epoch_.end(), 0u);
      moving_stamp_ = 1;
    }
    for (CellId c : cells) moving_epoch_[c] = moving_stamp_;

    breakpoints_.clear();
    for (std::size_t k = 0; k < cells.size(); ++k) {
      for (PinId p : nl_->cell(cells[k]).pins) {
        const auto& pin = nl_->pin(p);
        const auto& net_pins = nl_->net(pin.net).pins;
        if (net_pins.size() < 2) continue;
        double lo = std::numeric_limits<double>::infinity(), hi = -lo;
        bool external = false;
        for (PinId q : net_pins) {
          // Skip pins belonging to the moving set.
          if (moving_epoch_[nl_->pin(q).cell] == moving_stamp_) continue;
          const double x = nl_->pin_position(q, *pl_).x;
          lo = std::min(lo, x);
          hi = std::max(hi, x);
          external = true;
        }
        if (!external) continue;
        const double off = rel[k] + pin.offset_x;
        breakpoints_.push_back(lo - off);
        breakpoints_.push_back(hi - off);
      }
    }
    if (breakpoints_.empty()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(breakpoints_.begin(), breakpoints_.end());
    const std::size_t m = breakpoints_.size();
    return (breakpoints_[(m - 1) / 2] + breakpoints_[m / 2]) / 2.0;
  }

  /// Try to move the entry at rows_[r][i] so its left edge becomes new_lx;
  /// keeps order and legality, commits only on HPWL improvement.
  void try_shift(std::size_t r, std::size_t i, double new_lx,
                 const std::vector<CellId>& moved_cells, PassProfile& prof) {
    auto& row = rows_[r];
    Entry& e = row[i];
    const double lo_bound = i > 0 ? row[i - 1].hx() : design_->row(r).lx;
    const double hi_bound =
        i + 1 < row.size() ? row[i + 1].lx : design_->row(r).hx;
    new_lx = std::clamp(new_lx, lo_bound, hi_bound - e.width);
    new_lx = design_->snap_x(new_lx);
    if (new_lx < lo_bound - 1e-9 || new_lx + e.width > hi_bound + 1e-9) {
      // Snapping pushed us out of the gap; try the inward site.
      new_lx = std::clamp(new_lx, lo_bound, hi_bound - e.width);
      const double site = design_->site_width();
      new_lx = design_->core().lx +
               std::ceil((new_lx - design_->core().lx) / site - 1e-9) * site;
      if (new_lx + e.width > hi_bound + 1e-9) return;
    }
    const double dx = new_lx - e.lx;
    if (std::abs(dx) < 1e-12) return;

    ++prof.candidates;
    centers_.clear();
    for (CellId c : moved_cells) {
      centers_.push_back({(*pl_)[c].x + dx, (*pl_)[c].y});
    }
    if (!keep_move(moved_cells, centers_)) return;
    e.lx = new_lx;
    ++prof.accepted;
  }

  void slide_pass() {
    std::vector<CellId> one(1);
    std::vector<double> rel{0.0};
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        Entry& e = rows_[r][i];
        if (e.unit != kNoUnit) continue;
        one[0] = e.cell;
        rel[0] = nl_->cell_width(e.cell) / 2.0;  // center from left edge
        // optimal_position returns the block coordinate X with the cell
        // center at X + rel[0]; with rel[0] = w/2, X is the left edge.
        const double x_opt = optimal_position(one, rel);
        if (!std::isfinite(x_opt)) continue;
        try_shift(r, i, x_opt, one, profile_.slide);
      }
    }
  }

  /// Adjacent-cell swaps: each free cell trades places with its free right
  /// neighbor when that lowers HPWL, keeping the pair's outer extent and
  /// inner gap.
  void swap_pass() {
    std::vector<CellId> pair(2);
    std::vector<geom::Point> centers(2);
    for (auto& row : rows_) {
      for (std::size_t i = 0; i + 1 < row.size(); ++i) {
        Entry& a = row[i];
        Entry& b = row[i + 1];
        if (a.unit != kNoUnit || b.unit != kNoUnit) continue;
        const double new_b_lx = a.lx;
        const double new_a_lx = a.lx + b.width + (b.lx - a.hx());
        pair[0] = a.cell;
        pair[1] = b.cell;
        centers[0] = {new_a_lx + a.width / 2.0, (*pl_)[a.cell].y};
        centers[1] = {new_b_lx + b.width / 2.0, (*pl_)[b.cell].y};
        ++profile_.swap.candidates;
        if (!keep_move(pair, centers)) continue;
        a.lx = new_a_lx;
        b.lx = new_b_lx;
        std::swap(a, b);
        ++profile_.swap.accepted;
      }
    }
  }

  void unit_slide_pass() {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        Entry& e = rows_[r][i];
        if (e.unit < 0) continue;  // a free cell or a fixed block
        const Unit& unit = (*units_)[static_cast<std::size_t>(e.unit)];
        // Relative member offsets from the unit's left edge.
        std::vector<CellId> cells = unit.cells;
        std::vector<double> rel(cells.size());
        for (std::size_t k = 0; k < cells.size(); ++k) {
          rel[k] = (*pl_)[cells[k]].x - e.lx;
        }
        const double x_opt = optimal_position(cells, rel);
        if (!std::isfinite(x_opt)) continue;
        try_shift(r, i, x_opt, cells, profile_.unit_slide);
      }
    }
  }

  /// Moves `cells` to `centers` and keeps the move if it lowers HPWL
  /// and the move guard (when set) allows it; otherwise undoes it.
  bool keep_move(const std::vector<CellId>& cells,
                 const std::vector<geom::Point>& centers) {
    const eval::MoveScorer::Score s = scorer_.move(cells, centers);
    profile_.rescans += scorer_.nets().size();
    if (s.after + 1e-12 < s.before) {
      if (!options_->move_guard || options_->move_guard(scorer_.nets())) {
        return true;
      }
      ++profile_.guard_vetoes;
    }
    scorer_.undo();
    return false;
  }

  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  netlist::Placement* pl_;
  const std::vector<Unit>* units_;
  const DetailOptions* options_;
  eval::MoveScorer scorer_;
  Profile profile_;
  std::vector<std::vector<Entry>> rows_;
  std::vector<geom::Point> centers_;
  std::vector<double> breakpoints_;
  std::vector<std::uint32_t> moving_epoch_;
  std::uint32_t moving_stamp_ = 0;
};

}  // namespace

DetailedPlacer::DetailedPlacer(const netlist::Netlist& nl,
                               const netlist::Design& design)
    : nl_(&nl), design_(&design) {}

DetailStats DetailedPlacer::run(netlist::Placement& pl,
                                const netlist::StructureAnnotation& groups,
                                const DetailOptions& options) {
  std::vector<Unit> units;
  for (const netlist::StructureGroup& group : groups.groups) {
    for (std::size_t bit = 0; bit < group.bits; ++bit) {
      std::vector<CellId> slice = group.slice(bit);
      if (slice.empty()) continue;
      // A slice may have been folded across several rows by legalization;
      // split it into per-row units.
      std::sort(slice.begin(), slice.end(), [&](CellId a, CellId b) {
        return pl[a].x < pl[b].x;
      });
      std::vector<std::pair<std::size_t, CellId>> by_row;
      by_row.reserve(slice.size());
      for (CellId c : slice) {
        by_row.emplace_back(design_->nearest_row(pl[c].y), c);
      }
      std::stable_sort(
          by_row.begin(), by_row.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      std::size_t start = 0;
      while (start < by_row.size()) {
        std::size_t end = start;
        while (end < by_row.size() &&
               by_row[end].first == by_row[start].first) {
          ++end;
        }
        Unit u;
        double sum_w = 0.0, lo = 1e300, hi = -1e300;
        for (std::size_t k = start; k < end; ++k) {
          const CellId c = by_row[k].second;
          u.cells.push_back(c);
          sum_w += nl_->cell_width(c);
          lo = std::min(lo, pl[c].x - nl_->cell_width(c) / 2.0);
          hi = std::max(hi, pl[c].x + nl_->cell_width(c) / 2.0);
        }
        // Only perfectly packed lanes move as rigid units: any internal
        // gap could legally contain a foreign cell, and a bounding-box
        // pseudo-entry spanning it would corrupt the row model. Lanes
        // with gaps (legalization fallbacks, gentle mode, array holes)
        // are handled as individual free cells instead.
        if (hi - lo <= sum_w + 1e-9) {
          units.push_back(std::move(u));
        }
        start = end;
      }
    }
  }
  Engine engine(*nl_, *design_, pl, units, options);
  return engine.optimize();
}

}  // namespace dp::detail
