#include "detail/detailed_placer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "eval/metrics.hpp"
#include "util/timer.hpp"

namespace dp::detail {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::PinId;

namespace {

/// The pass loop stops once a full pass improves HPWL by less than this
/// relative amount.
constexpr double kRelImprovementFloor = 1e-4;

/// One occupied interval of a row: a movable cell, or a blocked interval
/// nothing moves (a fixed cell's row block).
struct Entry {
  double lx = 0.0;
  double width = 0.0;
  CellId cell = kInvalidId;  ///< kInvalidId for a blocked interval

  double hx() const { return lx + width; }
  bool blocked() const { return cell == kInvalidId; }
};

/// The detailed placer's engine. Every candidate move is applied and
/// scored by eval::MoveScorer, then kept or undone; each pass ends with a
/// full eval::hpwl for the stop test.
class Engine {
 public:
  Engine(const netlist::Netlist& nl, const netlist::Design& design,
         netlist::Placement& pl, const DetailOptions& options)
      : nl_(&nl),
        design_(&design),
        pl_(&pl),
        options_(&options),
        scorer_(nl, pl) {
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
    for (CellId c = 0; c < nl_->num_cells(); ++c) {
      if (nl_->cell(c).fixed) continue;
      const double w = nl_->cell_width(c);
      const std::size_t r = design_->nearest_row((*pl_)[c].y);
      rows_[r].push_back({(*pl_)[c].x - w / 2.0, w, c});
    }
    for (const netlist::RowBlock& b :
         netlist::fixed_row_blocks(*nl_, *design_, *pl_)) {
      rows_[b.row].push_back({b.lx, b.hx - b.lx, kInvalidId});
    }
    for (auto& row : rows_) {
      std::sort(row.begin(), row.end(),
                [](const Entry& a, const Entry& b) { return a.lx < b.lx; });
      // Safety net: entries that overlap a predecessor or a blocked
      // interval (possible when the incoming placement is not perfectly
      // legal) are removed from the row model -- their cells keep their
      // positions and are never moved, so the detailer cannot make things
      // worse. Blocked intervals always stay; overlapping ones merge.
      std::vector<Entry> clean;
      clean.reserve(row.size());
      for (const Entry& e : row) {
        const bool blocked = e.blocked();
        while (blocked && !clean.empty() && !clean.back().blocked() &&
               clean.back().hx() > e.lx + 1e-9) {
          clean.pop_back();
        }
        if (!clean.empty() && clean.back().hx() > e.lx + 1e-9) {
          if (blocked) {
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

  /// Breakpoint-median optimal left edge for cell `c`: the midpoint of
  /// the interval minimizing the HPWL of its nets with every other pin
  /// held, or NaN if the cell has no net to another cell.
  double optimal_position(CellId c) {
    const double half_w = nl_->cell_width(c) / 2.0;
    breakpoints_.clear();
    for (PinId p : nl_->cell_pins(c)) {
      const auto& pin = nl_->pin(p);
      const auto net_pins = nl_->net_pins(pin.net);
      if (net_pins.size() < 2) continue;
      double lo = std::numeric_limits<double>::infinity(), hi = -lo;
      bool external = false;
      for (PinId q : net_pins) {
        if (nl_->pin(q).cell == c) continue;
        const double x = nl_->pin_position(q, *pl_).x;
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        external = true;
      }
      if (!external) continue;
      const double off = half_w + pin.offset_x;
      breakpoints_.push_back(lo - off);
      breakpoints_.push_back(hi - off);
    }
    if (breakpoints_.empty()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(breakpoints_.begin(), breakpoints_.end());
    const std::size_t m = breakpoints_.size();
    return (breakpoints_[(m - 1) / 2] + breakpoints_[m / 2]) / 2.0;
  }

  /// Slides each movable cell toward its optimal left edge, clamped into
  /// its row gap and snapped to a site; keeps order and legality, and
  /// commits only on HPWL improvement.
  void slide_pass() {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      auto& row = rows_[r];
      for (std::size_t i = 0; i < row.size(); ++i) {
        Entry& e = row[i];
        if (e.blocked()) continue;
        double new_lx = optimal_position(e.cell);
        if (!std::isfinite(new_lx)) continue;
        const double lo_bound = i > 0 ? row[i - 1].hx() : design_->row(r).lx;
        const double hi_bound =
            i + 1 < row.size() ? row[i + 1].lx : design_->row(r).hx;
        new_lx = std::clamp(new_lx, lo_bound, hi_bound - e.width);
        new_lx = design_->snap_x(new_lx);
        if (new_lx < lo_bound - 1e-9 || new_lx + e.width > hi_bound + 1e-9) {
          // Snapping pushed us out of the gap; try the inward site.
          new_lx = std::clamp(new_lx, lo_bound, hi_bound - e.width);
          const double x0 = design_->core().lx, site = design_->site_width();
          new_lx = x0 + std::ceil((new_lx - x0) / site - 1e-9) * site;
          if (new_lx + e.width > hi_bound + 1e-9) continue;
        }
        const double dx = new_lx - e.lx;
        if (std::abs(dx) < 1e-12) continue;

        ++profile_.slide.candidates;
        const geom::Point center{(*pl_)[e.cell].x + dx, (*pl_)[e.cell].y};
        if (!keep_move({&e.cell, 1}, {&center, 1})) continue;
        e.lx = new_lx;
        ++profile_.slide.accepted;
      }
    }
  }

  /// Adjacent-cell swaps: each movable cell trades places with its
  /// movable right neighbor when that lowers HPWL, keeping the pair's
  /// outer extent and inner gap.
  void swap_pass() {
    for (auto& row : rows_) {
      for (std::size_t i = 0; i + 1 < row.size(); ++i) {
        Entry& a = row[i];
        Entry& b = row[i + 1];
        if (a.blocked() || b.blocked()) continue;
        const double new_b_lx = a.lx;
        const double new_a_lx = a.lx + b.width + (b.lx - a.hx());
        const std::array<CellId, 2> pair{a.cell, b.cell};
        const std::array<geom::Point, 2> centers{
            geom::Point{new_a_lx + a.width / 2.0, (*pl_)[a.cell].y},
            geom::Point{new_b_lx + b.width / 2.0, (*pl_)[b.cell].y}};
        ++profile_.swap.candidates;
        if (!keep_move(pair, centers)) continue;
        a.lx = new_a_lx;
        b.lx = new_b_lx;
        std::swap(a, b);
        ++profile_.swap.accepted;
      }
    }
  }

  /// Moves `cells` to `centers` and keeps the move if it lowers HPWL
  /// and the move guard (when set) allows it; otherwise undoes it.
  bool keep_move(std::span<const CellId> cells,
                 std::span<const geom::Point> centers) {
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
  const DetailOptions* options_;
  eval::MoveScorer scorer_;
  Profile profile_;
  std::vector<std::vector<Entry>> rows_;
  std::vector<double> breakpoints_;
};

}  // namespace

DetailStats detailed_place(const netlist::Netlist& nl,
                           const netlist::Design& design,
                           netlist::Placement& pl,
                           const DetailOptions& options) {
  return Engine(nl, design, pl, options).optimize();
}

}  // namespace dp::detail
