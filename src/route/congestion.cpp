#include "route/congestion.hpp"

#include <algorithm>

#include "geom/bin_grid.hpp"
#include "geom/rect.hpp"

namespace dp::route {

using netlist::CellId;

namespace {

/// The most bins per side of a grid the map sizes itself.
constexpr std::size_t kMaxGridSide = 256;

}  // namespace

CongestionMap::CongestionMap(const netlist::Netlist& nl,
                             const netlist::Design& design,
                             CongestionOptions options)
    : nl_(&nl), design_(&design), flat_(nl, 1) {
  nb_ = geom::grid_side(options.bins_per_side, nl.num_movable(),
                        kMaxGridSide);
  const geom::Rect& core = design.core();
  bw_ = core.width() / static_cast<double>(nb_);
  bh_ = core.height() / static_cast<double>(nb_);
  cap_ = bw_ * bh_ * kTracksPerArea;

  demand_h_.assign(nb_ * nb_, 0.0);
  demand_v_.assign(nb_ * nb_, 0.0);
}

std::size_t CongestionMap::bin_x(double x) const {
  return geom::clamped_bin(x, design_->core().lx, bw_, nb_);
}

std::size_t CongestionMap::bin_y(double y) const {
  return geom::clamped_bin(y, design_->core().ly, bh_, nb_);
}

void CongestionMap::build(const netlist::Placement& pl) {
  const geom::Rect& core = design_->core();
  pin_bin_.resize(flat_.pin_cell.size());
  std::fill(demand_h_.begin(), demand_h_.end(), 0.0);
  std::fill(demand_v_.begin(), demand_v_.end(), 0.0);

  // RUDY demand in ascending kept-net order, then the pin surcharge in
  // ascending pin-slot order, so every bin sums its nets first and its
  // pins after.
  for (std::size_t kn = 0; kn < flat_.num_nets(); ++kn) {
    geom::Rect box;
    for (std::uint32_t p = flat_.net_first[kn]; p < flat_.net_first[kn + 1];
         ++p) {
      const CellId c = flat_.pin_cell[p];
      const geom::Point pos{pl[c].x + flat_.pin_dx[p],
                            pl[c].y + flat_.pin_dy[p]};
      box.expand(pos);
      pin_bin_[p] =
          static_cast<std::uint32_t>(bin_y(pos.y) * nb_ + bin_x(pos.x));
    }
    const double wire_x = flat_.net_weight[kn] * box.width();
    const double wire_y = flat_.net_weight[kn] * box.height();
    // Expand to at least one bin per axis (flat and point nets must
    // still land somewhere), then clip to the core.
    double lx = box.lx, hx = box.hx, ly = box.ly, hy = box.hy;
    if (hx - lx < bw_) {
      const double cx = (lx + hx) / 2.0;
      lx = cx - bw_ / 2.0;
      hx = cx + bw_ / 2.0;
    }
    if (hy - ly < bh_) {
      const double cy = (ly + hy) / 2.0;
      ly = cy - bh_ / 2.0;
      hy = cy + bh_ / 2.0;
    }
    const geom::Rect clip{std::max(lx, core.lx), std::max(ly, core.ly),
                          std::min(hx, core.hx), std::min(hy, core.hy)};
    // Entirely outside the core (e.g. a pad-only net): no demand.
    if (clip.hx <= clip.lx || clip.hy <= clip.ly) continue;
    const geom::BinSpan bins = geom::bin_span(clip, core, bw_, bh_, nb_);
    const double inv_area =
        1.0 / ((clip.hx - clip.lx) * (clip.hy - clip.ly));
    for (long long by = bins.y0; by <= bins.y1; ++by) {
      const double b_ly = core.ly + static_cast<double>(by) * bh_;
      const double oy = std::min(clip.hy, b_ly + bh_) - std::max(clip.ly, b_ly);
      for (long long bx = bins.x0; bx <= bins.x1; ++bx) {
        const double b_lx = core.lx + static_cast<double>(bx) * bw_;
        const double ox =
            std::min(clip.hx, b_lx + bw_) - std::max(clip.lx, b_lx);
        const double frac = ox * oy * inv_area;
        demand_h_[geom::bin_index(bx, by, nb_)] += frac * wire_x;
        demand_v_[geom::bin_index(bx, by, nb_)] += frac * wire_y;
      }
    }
  }
  const double half_pin = kPinWeight / 2.0;
  for (const std::uint32_t i : pin_bin_) {
    demand_h_[i] += half_pin;
    demand_v_[i] += half_pin;
  }
}

double CongestionMap::ratio(std::size_t bx, std::size_t by) const {
  const std::size_t i = by * nb_ + bx;
  return std::max(demand_h_[i] / cap_, demand_v_[i] / cap_);
}

CongestionReport CongestionMap::report() const {
  CongestionReport rep;
  rep.bins = nb_;
  double total_demand = 0.0;
  rep.ratios.assign(nb_ * nb_, 0.0);
  for (std::size_t i = 0; i < nb_ * nb_; ++i) {
    const double rh = demand_h_[i] / cap_;
    const double rv = demand_v_[i] / cap_;
    rep.peak_h = std::max(rep.peak_h, rh);
    rep.peak_v = std::max(rep.peak_v, rv);
    rep.ratios[i] = std::max(rh, rv);
    total_demand += demand_h_[i] + demand_v_[i];
    const double over = std::max(0.0, demand_h_[i] - cap_) +
                        std::max(0.0, demand_v_[i] - cap_);
    rep.overflow_total += over;
    if (rh > 1.0 || rv > 1.0) ++rep.overflowed_bins;
  }
  rep.peak = std::max(rep.peak_h, rep.peak_v);
  rep.overflow_frac =
      total_demand > 0.0 ? rep.overflow_total / total_demand : 0.0;

  // ACE-style percentiles: mean combined ratio of the worst x% of bins.
  std::vector<double> combined = rep.ratios;
  std::sort(combined.begin(), combined.end(), std::greater<double>());
  auto ace = [&](double frac) {
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               frac * static_cast<double>(combined.size())));
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += combined[i];
    return acc / static_cast<double>(n);
  };
  rep.ace_0_5 = ace(0.005);
  rep.ace_1 = ace(0.01);
  rep.ace_2 = ace(0.02);
  rep.ace_5 = ace(0.05);
  return rep;
}

}  // namespace dp::route
