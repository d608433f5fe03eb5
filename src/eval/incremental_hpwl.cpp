#include "eval/incremental_hpwl.hpp"

#include <algorithm>
#include <limits>

namespace dp::eval {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

IncrementalHpwl::IncrementalHpwl(const netlist::Netlist& nl,
                                 netlist::Placement& pl)
    : nl_(&nl), pl_(&pl) {
  pin_x_.resize(nl.num_pins());
  pin_y_.resize(nl.num_pins());
  boxes_.resize(nl.num_nets());
  cell_epoch_.assign(nl.num_cells(), 0);
  net_stamp_.assign(nl.num_nets(), NetStamp{});
  rebuild();
}

void IncrementalHpwl::rebuild() {
  for (PinId p = 0; p < nl_->num_pins(); ++p) {
    const geom::Point pos = nl_->pin_position(p, *pl_);
    pin_x_[p] = pos.x;
    pin_y_[p] = pos.y;
  }
  for (NetId n = 0; n < nl_->num_nets(); ++n) {
    NetBox& b = boxes_[n];
    b = NetBox{};
    const auto& pins = nl_->net(n).pins;
    if (pins.empty()) continue;
    double lo_x = kInf, hi_x = -kInf, lo_y = kInf, hi_y = -kInf;
    for (PinId p : pins) {
      lo_x = std::min(lo_x, pin_x_[p]);
      hi_x = std::max(hi_x, pin_x_[p]);
      lo_y = std::min(lo_y, pin_y_[p]);
      hi_y = std::max(hi_y, pin_y_[p]);
    }
    b.min_x = lo_x;
    b.max_x = hi_x;
    b.min_y = lo_y;
    b.max_y = hi_y;
    for (PinId p : pins) {
      if (pin_x_[p] == lo_x) ++b.n_min_x;
      if (pin_x_[p] == hi_x) ++b.n_max_x;
      if (pin_y_[p] == lo_y) ++b.n_min_y;
      if (pin_y_[p] == hi_y) ++b.n_max_y;
    }
  }
  resync_total();
}

double IncrementalHpwl::resync_total() {
  double total = 0.0;
  for (NetId n = 0; n < nl_->num_nets(); ++n) {
    total += nl_->net(n).weight * net_hpwl(n);
  }
  total_ = total;
  return total;
}

IncrementalHpwl::Trial IncrementalHpwl::trial_shift(
    std::span<const CellId> cells, double dx, double dy) {
  return stage(cells, Mode::kShift, dx, dy, {});
}

IncrementalHpwl::Trial IncrementalHpwl::trial_place(
    std::span<const CellId> cells, std::span<const geom::Point> centers) {
  return stage(cells, Mode::kPlace, 0.0, 0.0, centers);
}

IncrementalHpwl::Trial IncrementalHpwl::stage(
    std::span<const CellId> cells, Mode mode, double dx, double dy,
    std::span<const geom::Point> centers) {
  staged_ = false;
  mode_ = mode;
  dx_ = dx;
  dy_ = dy;
  staged_cells_.assign(cells.begin(), cells.end());
  staged_centers_.assign(centers.begin(), centers.end());

  ++epoch_;
  if (epoch_ == 0) {  // wrap-around: invalidate every stale stamp
    std::fill(cell_epoch_.begin(), cell_epoch_.end(), 0u);
    std::fill(net_stamp_.begin(), net_stamp_.end(), NetStamp{});
    epoch_ = 1;
  }
  staged_pins_.clear();
  trial_nets_.clear();
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const CellId c = cells[k];
    cell_epoch_[c] = epoch_;
    // Candidate cell center. The shift form mirrors `pl[c] += d` followed
    // by a position read, so committed coordinates round identically to a
    // mutate-and-rescan implementation.
    double cx = 0.0, cy = 0.0;
    switch (mode) {
      case Mode::kShift:
        cx = (*pl_)[c].x + dx;
        cy = (*pl_)[c].y + dy;
        break;
      case Mode::kPlace:
        cx = centers[k].x;
        cy = centers[k].y;
        break;
    }
    for (PinId p : nl_->cell(c).pins) {
      const netlist::Pin& pin = nl_->pin(p);
      const NetId n = pin.net;
      const double nx = cx + pin.offset_x;
      const double ny = cy + pin.offset_y;
      staged_pins_.push_back({n, p, nx, ny});

      const NetBox& cached = boxes_[n];
      const double ox = pin_x_[p], oy = pin_y_[p];
      NetStamp& stamp = net_stamp_[n];
      if (stamp.epoch != epoch_) {
        // First staged pin of this net in this trial: open an accumulator
        // slot. The open is fused with this pin's fold -- rest counts are
        // the cached extreme multiplicities minus this pin, the add
        // extents are just its candidate coordinate -- so nets with a
        // single staged pin (the bulk of detailed-placement candidates)
        // never take the general merge path below.
        stamp.epoch = epoch_;
        const std::size_t slot = trial_nets_.size();
        stamp.slot = static_cast<std::uint32_t>(slot);
        trial_nets_.push_back(n);
        if (accs_.size() <= slot) accs_.resize(slot + 1);
        NetAcc& a = accs_[slot];
        a.rest_min_x = cached.n_min_x - (ox == cached.min_x ? 1u : 0u);
        a.rest_max_x = cached.n_max_x - (ox == cached.max_x ? 1u : 0u);
        a.rest_min_y = cached.n_min_y - (oy == cached.min_y ? 1u : 0u);
        a.rest_max_y = cached.n_max_y - (oy == cached.max_y ? 1u : 0u);
        a.add_min_x = a.add_max_x = nx;
        a.add_min_y = a.add_max_y = ny;
        a.an_min_x = a.an_max_x = 1;
        a.an_min_y = a.an_max_y = 1;
        a.moved = 1;
        continue;
      }
      NetAcc& a = accs_[stamp.slot];
      // Remove the pin's old coordinate from the cached extremes...
      if (ox == cached.min_x) --a.rest_min_x;
      if (ox == cached.max_x) --a.rest_max_x;
      if (oy == cached.min_y) --a.rest_min_y;
      if (oy == cached.max_y) --a.rest_max_y;
      // ...and fold its candidate coordinate into the add extents.
      if (nx < a.add_min_x) {
        a.add_min_x = nx;
        a.an_min_x = 1;
      } else if (nx == a.add_min_x) {
        ++a.an_min_x;
      }
      if (nx > a.add_max_x) {
        a.add_max_x = nx;
        a.an_max_x = 1;
      } else if (nx == a.add_max_x) {
        ++a.an_max_x;
      }
      if (ny < a.add_min_y) {
        a.add_min_y = ny;
        a.an_min_y = 1;
      } else if (ny == a.add_min_y) {
        ++a.an_min_y;
      }
      if (ny > a.add_max_y) {
        a.add_max_y = ny;
        a.an_max_y = 1;
      } else if (ny == a.add_max_y) {
        ++a.an_max_y;
      }
      ++a.moved;
    }
  }
  // Ascending net order keeps the before/after sums bitwise identical to
  // the historical sorted-unique-nets rescan. The list is a handful of
  // entries for single-cell candidates, so insertion sort beats the
  // introsort dispatch there.
  if (trial_nets_.size() <= 16) {
    for (std::size_t i = 1; i < trial_nets_.size(); ++i) {
      const NetId v = trial_nets_[i];
      std::size_t j = i;
      for (; j > 0 && trial_nets_[j - 1] > v; --j) {
        trial_nets_[j] = trial_nets_[j - 1];
      }
      trial_nets_[j] = v;
    }
  } else {
    std::sort(trial_nets_.begin(), trial_nets_.end());
  }

  Trial t;
  staged_nets_.clear();
  for (const NetId n : trial_nets_) {
    const netlist::Net& net = nl_->net(n);
    const NetBox nb = resolve_net(n, net, accs_[net_stamp_[n].slot]);
    if (net.pins.size() >= 2) {
      const NetBox& ob = boxes_[n];
      t.before += net.weight * ((ob.max_x - ob.min_x) + (ob.max_y - ob.min_y));
      t.after += net.weight * ((nb.max_x - nb.min_x) + (nb.max_y - nb.min_y));
    }
    staged_nets_.push_back({n, nb});
  }
  stage_before_ = t.before;
  stage_after_ = t.after;
  staged_ = true;
  return t;
}

IncrementalHpwl::NetBox IncrementalHpwl::resolve_net(NetId n,
                                                     const netlist::Net& net,
                                                     const NetAcc& a) {
  const NetBox& cached = boxes_[n];
  const std::uint32_t rest_min_x = a.rest_min_x, rest_max_x = a.rest_max_x;
  const std::uint32_t rest_min_y = a.rest_min_y, rest_max_y = a.rest_max_y;
  const double add_min_x = a.add_min_x, add_max_x = a.add_max_x;
  const double add_min_y = a.add_min_y, add_max_y = a.add_max_y;
  const std::uint32_t an_min_x = a.an_min_x, an_max_x = a.an_max_x;
  const std::uint32_t an_min_y = a.an_min_y, an_max_y = a.an_max_y;

  // A net whose every pin is staged (internal to the moved set) needs no
  // merging at all: its new box is exactly the staged pins' extents. This
  // keeps rigid slice and chunk moves O(moved pins) even though they
  // deplete all four cached extremes.
  if (a.moved == net.pins.size()) {
    return NetBox{add_min_x, add_max_x, add_min_y, add_max_y,
                  an_min_x,  an_max_x,  an_min_y,  an_max_y};
  }

  // Two-pin net with one staged pin: the single unmoved pin is the whole
  // "rest" of the net, so each side is a two-value merge with no cached
  // state consulted and never a rescan. Two-pin nets are the bulk of a
  // datapath netlist, and a driver pin sits on an extreme of every one of
  // its nets, so this path removes most inward-move rescans.
  if (a.moved == 1 && net.pins.size() == 2) {
    const PinId p0 = net.pins[0];
    const PinId rest =
        cell_epoch_[nl_->pin(p0).cell] == epoch_ ? net.pins[1] : p0;
    const double rx = pin_x_[rest], ry = pin_y_[rest];
    NetBox out;
    if (rx < add_min_x) {
      out.min_x = rx;
      out.n_min_x = 1;
    } else if (rx > add_min_x) {
      out.min_x = add_min_x;
      out.n_min_x = 1;
    } else {
      out.min_x = rx;
      out.n_min_x = 2;
    }
    if (rx > add_max_x) {
      out.max_x = rx;
      out.n_max_x = 1;
    } else if (rx < add_max_x) {
      out.max_x = add_max_x;
      out.n_max_x = 1;
    } else {
      out.max_x = rx;
      out.n_max_x = 2;
    }
    if (ry < add_min_y) {
      out.min_y = ry;
      out.n_min_y = 1;
    } else if (ry > add_min_y) {
      out.min_y = add_min_y;
      out.n_min_y = 1;
    } else {
      out.min_y = ry;
      out.n_min_y = 2;
    }
    if (ry > add_max_y) {
      out.max_y = ry;
      out.n_max_y = 1;
    } else if (ry < add_max_y) {
      out.max_y = add_max_y;
      out.n_max_y = 1;
    } else {
      out.max_y = ry;
      out.n_max_y = 2;
    }
    return out;
  }

  // Resolve one "lo" side without a rescan when possible. `rest_n > 0`
  // means the cached extreme still holds for the unmoved pins; otherwise
  // every pin at the extreme moved, and the side resolves cheaply only if
  // a candidate coordinate lands at or beyond it (all unmoved pins are
  // strictly inside). The leftover case -- the extreme pin moved inward --
  // is the lazy rescan.
  auto resolve_lo = [](double rest_v, std::uint32_t rest_n, double add_v,
                       std::uint32_t add_n, double& out_v,
                       std::uint32_t& out_n, bool& need_scan) {
    if (rest_n > 0) {
      if (add_n == 0 || rest_v < add_v) {
        out_v = rest_v;
        out_n = rest_n;
      } else if (add_v < rest_v) {
        out_v = add_v;
        out_n = add_n;
      } else {
        out_v = rest_v;
        out_n = rest_n + add_n;
      }
    } else if (add_n > 0 && add_v <= rest_v) {
      out_v = add_v;
      out_n = add_n;
    } else {
      need_scan = true;
    }
  };
  auto resolve_hi = [](double rest_v, std::uint32_t rest_n, double add_v,
                       std::uint32_t add_n, double& out_v,
                       std::uint32_t& out_n, bool& need_scan) {
    if (rest_n > 0) {
      if (add_n == 0 || rest_v > add_v) {
        out_v = rest_v;
        out_n = rest_n;
      } else if (add_v > rest_v) {
        out_v = add_v;
        out_n = add_n;
      } else {
        out_v = rest_v;
        out_n = rest_n + add_n;
      }
    } else if (add_n > 0 && add_v >= rest_v) {
      out_v = add_v;
      out_n = add_n;
    } else {
      need_scan = true;
    }
  };

  NetBox out;
  bool scan_min_x = false, scan_max_x = false;
  bool scan_min_y = false, scan_max_y = false;
  resolve_lo(cached.min_x, rest_min_x, add_min_x, an_min_x, out.min_x,
             out.n_min_x, scan_min_x);
  resolve_hi(cached.max_x, rest_max_x, add_max_x, an_max_x, out.max_x,
             out.n_max_x, scan_max_x);
  resolve_lo(cached.min_y, rest_min_y, add_min_y, an_min_y, out.min_y,
             out.n_min_y, scan_min_y);
  resolve_hi(cached.max_y, rest_max_y, add_max_y, an_max_y, out.max_y,
             out.n_max_y, scan_max_y);

  if (scan_min_x || scan_max_x || scan_min_y || scan_max_y) {
    // One pass over the unmoved pins recovers every depleted side.
    ++rescans_;
    double s_min_x = kInf, s_max_x = -kInf, s_min_y = kInf, s_max_y = -kInf;
    std::uint32_t sn_min_x = 0, sn_max_x = 0, sn_min_y = 0, sn_max_y = 0;
    for (PinId p : net.pins) {
      if (cell_epoch_[nl_->pin(p).cell] == epoch_) continue;  // moved
      const double x = pin_x_[p], y = pin_y_[p];
      if (x < s_min_x) {
        s_min_x = x;
        sn_min_x = 1;
      } else if (x == s_min_x) {
        ++sn_min_x;
      }
      if (x > s_max_x) {
        s_max_x = x;
        sn_max_x = 1;
      } else if (x == s_max_x) {
        ++sn_max_x;
      }
      if (y < s_min_y) {
        s_min_y = y;
        sn_min_y = 1;
      } else if (y == s_min_y) {
        ++sn_min_y;
      }
      if (y > s_max_y) {
        s_max_y = y;
        sn_max_y = 1;
      } else if (y == s_max_y) {
        ++sn_max_y;
      }
    }
    auto merge_lo = [](double av, std::uint32_t an, double bv,
                       std::uint32_t bn, double& ov, std::uint32_t& on) {
      if (an == 0 || (bn > 0 && bv < av)) {
        ov = bv;
        on = bn;
      } else if (bn == 0 || av < bv) {
        ov = av;
        on = an;
      } else {
        ov = av;
        on = an + bn;
      }
    };
    auto merge_hi = [](double av, std::uint32_t an, double bv,
                       std::uint32_t bn, double& ov, std::uint32_t& on) {
      if (an == 0 || (bn > 0 && bv > av)) {
        ov = bv;
        on = bn;
      } else if (bn == 0 || av > bv) {
        ov = av;
        on = an;
      } else {
        ov = av;
        on = an + bn;
      }
    };
    if (scan_min_x) {
      merge_lo(s_min_x, sn_min_x, add_min_x, an_min_x, out.min_x,
               out.n_min_x);
    }
    if (scan_max_x) {
      merge_hi(s_max_x, sn_max_x, add_max_x, an_max_x, out.max_x,
               out.n_max_x);
    }
    if (scan_min_y) {
      merge_lo(s_min_y, sn_min_y, add_min_y, an_min_y, out.min_y,
               out.n_min_y);
    }
    if (scan_max_y) {
      merge_hi(s_max_y, sn_max_y, add_max_y, an_max_y, out.max_y,
               out.n_max_y);
    }
  }
  return out;
}

void IncrementalHpwl::commit() {
  if (!staged_) return;
  switch (mode_) {
    case Mode::kShift:
      for (const CellId c : staged_cells_) {
        (*pl_)[c].x += dx_;
        (*pl_)[c].y += dy_;
      }
      break;
    case Mode::kPlace:
      for (std::size_t k = 0; k < staged_cells_.size(); ++k) {
        (*pl_)[staged_cells_[k]] = staged_centers_[k];
      }
      break;
  }
  for (const StagedPin& sp : staged_pins_) {
    pin_x_[sp.pin] = sp.new_x;
    pin_y_[sp.pin] = sp.new_y;
  }
  for (const StagedNet& sn : staged_nets_) boxes_[sn.net] = sn.box;
  total_ += stage_after_ - stage_before_;
  staged_ = false;
}

}  // namespace dp::eval
