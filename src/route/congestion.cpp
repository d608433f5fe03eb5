#include "route/congestion.hpp"

#include <algorithm>
#include <cmath>

#include "geom/rect.hpp"
#include "util/thread_pool.hpp"

namespace dp::route {

using netlist::CellId;

namespace {

std::size_t pow2_at_least(double x) {
  std::size_t p = 1;
  while (static_cast<double>(p) < x) p <<= 1;
  return p;
}

}  // namespace

CongestionMap::CongestionMap(const netlist::Netlist& nl,
                             const netlist::Design& design,
                             CongestionOptions options)
    : nl_(&nl), design_(&design), flat_(nl, 1) {
  const std::size_t n_mov = nl.num_movable();
  nb_ = options.bins_per_side != 0
            ? options.bins_per_side
            : std::clamp<std::size_t>(
                  pow2_at_least(std::sqrt(static_cast<double>(n_mov))), 16,
                  256);
  const geom::Rect& core = design.core();
  bw_ = core.width() / static_cast<double>(nb_);
  bh_ = core.height() / static_cast<double>(nb_);
  cap_ = bw_ * bh_ * kTracksPerArea;

  demand_h_.assign(nb_ * nb_, 0.0);
  demand_v_.assign(nb_ * nb_, 0.0);
}

std::size_t CongestionMap::bin_x(double x) const {
  const double rel = (x - design_->core().lx) / bw_;
  const auto b = static_cast<long long>(std::floor(rel));
  return static_cast<std::size_t>(
      std::clamp<long long>(b, 0, static_cast<long long>(nb_) - 1));
}

std::size_t CongestionMap::bin_y(double y) const {
  const double rel = (y - design_->core().ly) / bh_;
  const auto b = static_cast<long long>(std::floor(rel));
  return static_cast<std::size_t>(
      std::clamp<long long>(b, 0, static_cast<long long>(nb_) - 1));
}

void CongestionMap::build(const netlist::Placement& pl) {
  const geom::Rect& core = design_->core();
  const auto nbi = static_cast<long long>(nb_);
  const std::size_t kept_nets = flat_.num_nets();
  boxes_.resize(kept_nets);
  pin_bin_.resize(flat_.pin_cell.size());

  // Pass 0: per-net expanded bounding boxes and per-pin bin indices,
  // embarrassingly parallel over fixed net chunks.
  util::run(pool_.get(), flat_.num_chunks(), [&](std::size_t k) {
    for (std::uint32_t kn = flat_.chunk_first[k];
         kn < flat_.chunk_first[k + 1]; ++kn) {
      const std::uint32_t p0 = flat_.net_first[kn];
      const std::uint32_t p1 = flat_.net_first[kn + 1];
      geom::Rect box;
      for (std::uint32_t p = p0; p < p1; ++p) {
        const CellId c = flat_.pin_cell[p];
        const geom::Point pos{pl[c].x + flat_.pin_dx[p],
                              pl[c].y + flat_.pin_dy[p]};
        box.expand(pos);
        pin_bin_[p] = static_cast<std::uint32_t>(bin_y(pos.y) * nb_ +
                                                 bin_x(pos.x));
      }
      NetBox nb;
      nb.wire_x = flat_.net_weight[kn] * box.width();
      nb.wire_y = flat_.net_weight[kn] * box.height();
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
      nb.lx = std::max(lx, core.lx);
      nb.hx = std::min(hx, core.hx);
      nb.ly = std::max(ly, core.ly);
      nb.hy = std::min(hy, core.hy);
      if (nb.hx <= nb.lx || nb.hy <= nb.ly) {
        // Entirely outside the core (e.g. a pad-only net): no demand.
        nb.bx0 = 0;
        nb.bx1 = -1;
        nb.by0 = 0;
        nb.by1 = -1;
      } else {
        nb.bx0 = std::max<long long>(
            0, static_cast<long long>(std::floor((nb.lx - core.lx) / bw_)));
        nb.bx1 = std::min<long long>(
            nbi - 1,
            static_cast<long long>(std::floor((nb.hx - core.lx) / bw_)));
        nb.by0 = std::max<long long>(
            0, static_cast<long long>(std::floor((nb.ly - core.ly) / bh_)));
        nb.by1 = std::min<long long>(
            nbi - 1,
            static_cast<long long>(std::floor((nb.hy - core.ly) / bh_)));
      }
      boxes_[kn] = nb;
    }
  });

  // Ownership lists: every bin row belongs to exactly one block, each
  // block accumulates its rows' contributions in ascending net/pin order
  // -- the same order as a serial sweep, so the grids are bitwise
  // identical for any thread count. The block count is fixed by the grid
  // alone.
  const std::size_t num_blocks = std::min(nb_, util::kMaxChunks);
  const std::size_t rows_per_block = (nb_ + num_blocks - 1) / num_blocks;
  block_nets_.resize(num_blocks);
  block_pins_.resize(num_blocks);
  for (auto& b : block_nets_) b.clear();
  for (auto& b : block_pins_) b.clear();
  for (std::size_t kn = 0; kn < kept_nets; ++kn) {
    if (boxes_[kn].by1 < boxes_[kn].by0) continue;
    const auto b0 = static_cast<std::size_t>(boxes_[kn].by0) / rows_per_block;
    const auto b1 = static_cast<std::size_t>(boxes_[kn].by1) / rows_per_block;
    for (std::size_t b = b0; b <= b1; ++b) {
      block_nets_[b].push_back(static_cast<std::uint32_t>(kn));
    }
  }
  for (std::size_t p = 0; p < pin_bin_.size(); ++p) {
    const std::size_t row = pin_bin_[p] / nb_;
    block_pins_[row / rows_per_block].push_back(
        static_cast<std::uint32_t>(p));
  }

  std::fill(demand_h_.begin(), demand_h_.end(), 0.0);
  std::fill(demand_v_.begin(), demand_v_.end(), 0.0);

  // Pass 1: rasterize RUDY demand and pin surcharge per bin-row block.
  const double half_pin = kPinWeight / 2.0;
  util::run(pool_.get(), num_blocks, [&](std::size_t b) {
    const auto r0 = static_cast<long long>(b * rows_per_block);
    const auto r1 = std::min<long long>(
        nbi, static_cast<long long>((b + 1) * rows_per_block));
    for (const std::uint32_t kn : block_nets_[b]) {
      const NetBox& box = boxes_[kn];
      const double inv_area =
          1.0 / ((box.hx - box.lx) * (box.hy - box.ly));
      const long long by_lo = std::max(box.by0, r0);
      const long long by_hi = std::min(box.by1, r1 - 1);
      for (long long by = by_lo; by <= by_hi; ++by) {
        const double b_ly = core.ly + static_cast<double>(by) * bh_;
        const double oy = std::min(box.hy, b_ly + bh_) - std::max(box.ly, b_ly);
        for (long long bx = box.bx0; bx <= box.bx1; ++bx) {
          const double b_lx = core.lx + static_cast<double>(bx) * bw_;
          const double ox =
              std::min(box.hx, b_lx + bw_) - std::max(box.lx, b_lx);
          const double frac = ox * oy * inv_area;
          const std::size_t i = static_cast<std::size_t>(by) * nb_ +
                                static_cast<std::size_t>(bx);
          demand_h_[i] += frac * box.wire_x;
          demand_v_[i] += frac * box.wire_y;
        }
      }
    }
    for (const std::uint32_t p : block_pins_[b]) {
      const std::size_t i = pin_bin_[p];
      demand_h_[i] += half_pin;
      demand_v_[i] += half_pin;
    }
  });
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
