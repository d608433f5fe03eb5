#include "gp/wirelength.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace dp::gp {

using netlist::NetId;

namespace {

using util::LaneMask;
using util::Lanes;
using util::pick;

/// The gradient gather's chunk minimum, in variables.
constexpr std::size_t kMinVarsPerChunk = 2048;

/// Pin slot `s`'s position: {x, y}.
inline Lanes pin_xy(const netlist::Placement& pl, const netlist::FlatNets& f,
                    std::uint32_t s) {
  const geom::Point& at = pl[f.pin_cell[s]];
  return Lanes{at.x, at.y} + Lanes{f.pin_dx[s], f.pin_dy[s]};
}

// Both kernels below evaluate one net on both axes at once: lane 0 is the
// x axis, lane 1 the y axis, and each lane runs exactly the scalar
// arithmetic of its axis, so every division of an axis shares one `Lanes`
// division with the other axis. For pins c[0..n) of one axis:
//   wmax[i] = exp((c[i] - max_c) / gamma),  wmin[i] = exp((min_c - c[i]) / gamma),
//   hi = sum(c wmax) / sum(wmax),           lo = sum(c wmin) / sum(wmin),
//   grad[i] = weight * (wmax[i] / sum(wmax) * (1 + (c[i] - hi) / gamma)
//                     - wmin[i] / sum(wmin) * (1 - (c[i] - lo) / gamma)),
// every sum accumulated from 0.0 in pin order. The kernels return hi - lo
// and write pin i's gradient to grad[pos[i]].
//
// The first pin at max_c (min_c) has the argument +0 / gamma = +-0, and
// exp(+-0) is exactly 1 (C Annex F), so its weight is 1 without an exp()
// call; for any gamma other than 0 or NaN the weights are those of
// calling exp() on every pin. The first min pin's wmax and the first max
// pin's wmin share the argument (min_c - max_c) / gamma, so one call
// serves both. With coordinates inside (-1e300, 1e300) every axis has
// both extreme pins, so an axis costs 1 call on a 2-pin net and 2n - 3
// calls otherwise (2n - 2 where all its pins coincide, as the first pin
// is then both extremes).

/// A net of n >= 3 pins. `p`, `wmax` and `wmin` are scratch of n lanes.
Lanes wa_net(const netlist::Placement& pl, const netlist::FlatNets& f,
             std::uint32_t base, std::size_t n, Lanes gamma, Lanes weight,
             Lanes* p, Lanes* wmax, Lanes* wmin, Lanes* grad,
             const std::uint32_t* pos) {
  // std::max/std::min semantics: an extreme is replaced only by a strictly
  // larger / smaller coordinate, so max_c and min_c are the bits of the
  // first pins that reach them.
  Lanes max_c = {-1e300, -1e300}, min_c = {1e300, 1e300};
  const auto none = static_cast<std::int64_t>(n);
  LaneMask imax = {none, none}, imin = {none, none};
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = pin_xy(pl, f, base + static_cast<std::uint32_t>(i));
    const LaneMask up = max_c < p[i], down = p[i] < min_c;
    const LaneMask at = {static_cast<std::int64_t>(i),
                         static_cast<std::int64_t>(i)};
    max_c = pick(up, p[i], max_c);
    imax = (imax & ~up) | (at & up);
    min_c = pick(down, p[i], min_c);
    imin = (imin & ~down) | (at & down);
  }
  // The exp() arguments first, then the calls in a loop of their own, with
  // nothing else live across them.
  for (std::size_t i = 0; i < n; ++i) {
    wmax[i] = (p[i] - max_c) / gamma;
    wmin[i] = (min_c - p[i]) / gamma;
  }
  for (int a = 0; a < 2; ++a) {
    const auto hi_pin = static_cast<std::size_t>(imax[a]);
    const auto lo_pin = static_cast<std::size_t>(imin[a]);
    // Every pin but the extreme ones, in runs around them, with no test
    // per pin.
    auto exps = [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        wmax[i][a] = std::exp(wmax[i][a]);
        wmin[i][a] = std::exp(wmin[i][a]);
      }
    };
    const std::size_t first = std::min(hi_pin, lo_pin);
    const std::size_t last = std::max(hi_pin, lo_pin);
    exps(0, first);
    exps(first + 1, last);
    exps(last + 1, n);
    // p[hi_pin] is max_c and p[lo_pin] min_c to the bit, so the max pin's
    // wmin and the min pin's wmax share the argument (min_c - max_c) /
    // gamma: one call serves both.
    if (hi_pin < n) {
      wmax[hi_pin][a] = 1.0;
      wmin[hi_pin][a] = hi_pin == lo_pin ? 1.0 : std::exp(wmin[hi_pin][a]);
    }
    if (lo_pin < n && lo_pin != hi_pin) {
      wmin[lo_pin][a] = 1.0;
      wmax[lo_pin][a] =
          hi_pin < n ? wmin[hi_pin][a] : std::exp(wmax[lo_pin][a]);
    }
  }
  const Lanes zero = {0.0, 0.0};
  Lanes smax = zero, amax = zero, smin = zero, amin = zero;
  for (std::size_t i = 0; i < n; ++i) {
    smax += wmax[i];
    amax += p[i] * wmax[i];
    smin += wmin[i];
    amin += p[i] * wmin[i];
  }
  const Lanes hi = amax / smax;
  const Lanes lo = amin / smin;
  for (std::size_t i = 0; i < n; ++i) {
    const Lanes ghi = wmax[i] / smax * (1.0 + (p[i] - hi) / gamma);
    const Lanes glo = wmin[i] / smin * (1.0 - (p[i] - lo) / gamma);
    grad[pos[i]] = weight * (ghi - glo);
  }
  return hi - lo;
}

/// A 2-pin net, with fewer divisions. Both non-extreme weights are
/// e = exp((min_c - max_c) / gamma), so sum(wmax) = sum(wmin) = 1 + e in
/// either pin order (0.0 + 1 + e and 0.0 + e + 1 round alike), and the
/// four per-pin weight divisions are 1 / s and e / s.
Lanes wa_net2(const netlist::Placement& pl, const netlist::FlatNets& f,
              std::uint32_t base, Lanes gamma, Lanes weight, Lanes* grad,
              const std::uint32_t* pos) {
  const Lanes p0 = pin_xy(pl, f, base), p1 = pin_xy(pl, f, base + 1);
  const LaneMask up = p0 < p1;    // pin 1 is the max pin
  const LaneMask down = p1 < p0;  // pin 1 is the min pin
  const Lanes max_c = pick(up, p1, p0), min_c = pick(down, p1, p0);
  const Lanes arg = (min_c - max_c) / gamma;
  const Lanes e = {std::exp(arg[0]), std::exp(arg[1])};
  const Lanes one = {1.0, 1.0}, zero = {0.0, 0.0};
  const Lanes s = one + e;
  const Lanes wmax0 = pick(up, e, one), wmax1 = pick(up, one, e);
  const Lanes wmin0 = pick(down, e, one), wmin1 = pick(down, one, e);
  const Lanes hi = ((zero + p0 * wmax0) + p1 * wmax1) / s;
  const Lanes lo = ((zero + p0 * wmin0) + p1 * wmin1) / s;
  const Lanes q1 = one / s, qe = e / s;  // the weights over s
  const Lanes qmax0 = pick(up, qe, q1), qmax1 = pick(up, q1, qe);
  const Lanes qmin0 = pick(down, qe, q1), qmin1 = pick(down, q1, qe);
  grad[pos[0]] = weight * (qmax0 * (1.0 + (p0 - hi) / gamma) -
                           qmin0 * (1.0 - (p0 - lo) / gamma));
  grad[pos[1]] = weight * (qmax1 * (1.0 + (p1 - hi) / gamma) -
                           qmin1 * (1.0 - (p1 - lo) / gamma));
  return hi - lo;
}

}  // namespace

std::vector<std::uint32_t> wirelength_chunks(const netlist::FlatNets& nets) {
  // Close a chunk once it holds a 1/chunks share of the pins.
  const std::size_t pins = nets.pin_cell.size();
  const std::size_t chunks = util::num_chunks(pins, kMinPinsPerChunk);
  const std::size_t per_chunk = (pins + chunks - 1) / chunks;
  std::vector<std::uint32_t> first{0};
  std::size_t acc = 0;
  for (std::size_t kn = 0; kn < nets.num_nets(); ++kn) {
    acc += nets.net_first[kn + 1] - nets.net_first[kn];
    if (acc >= per_chunk && kn + 1 < nets.num_nets()) {
      first.push_back(static_cast<std::uint32_t>(kn + 1));
      acc = 0;
    }
  }
  first.push_back(static_cast<std::uint32_t>(nets.num_nets()));
  return first;
}

SmoothWirelength::SmoothWirelength(const netlist::Netlist& nl,
                                   WirelengthModel /*model*/, double gamma)
    : nl_(&nl), gamma_(gamma), flat_(nl, 2),
      chunk_first_(wirelength_chunks(flat_)) {
  for (std::size_t kn = 0; kn < flat_.num_nets(); ++kn) {
    const std::size_t deg = flat_.net_first[kn + 1] - flat_.net_first[kn];
    max_degree_ = std::max(max_degree_, deg);
    exp_calls_ += 2 * (deg == 2 ? 1 : 2 * deg - 3);
  }

  // Gradient positions: variable v's pins, in slot order, take
  // var_first_[v] .. var_first_[v + 1]; the pins of fixed cells follow the
  // last variable's.
  const VarMap vars(nl);
  const std::size_t nv = vars.num_vars();
  var_first_.assign(nv + 1, 0);
  for (const std::uint32_t c : flat_.pin_cell) {
    const std::uint32_t v = vars.var(c);
    if (v != netlist::kInvalidId) ++var_first_[v + 1];
  }
  for (std::size_t v = 0; v < nv; ++v) var_first_[v + 1] += var_first_[v];
  std::vector<std::uint32_t> cursor(var_first_.begin(), var_first_.end());
  grad_pos_.resize(flat_.pin_cell.size());
  for (std::uint32_t s = 0; s < flat_.pin_cell.size(); ++s) {
    const std::uint32_t v = vars.var(flat_.pin_cell[s]);
    grad_pos_[s] = cursor[v != netlist::kInvalidId ? v : nv]++;
  }
}

void SmoothWirelength::set_net_weight_scale(std::span<const double> scale) {
  for (std::size_t kn = 0; kn < flat_.num_nets(); ++kn) {
    const NetId n = flat_.net_id[kn];
    const double base = nl_->net(n).weight;
    flat_.net_weight[kn] = scale.empty() ? base : base * scale[n];
  }
}

double SmoothWirelength::value(const netlist::Placement& pl,
                               const VarMap& /*vars*/) const {
  const std::size_t nchunks = chunk_first_.size() - 1;
  chunk_value_.assign(nchunks, 0.0);
  // Every slot is overwritten (not accumulated), so no zero-fill; chunks
  // write disjoint slots.
  gpin_.resize(flat_.pin_cell.size());
  chunk_scratch_.resize(nchunks);
  const Lanes gamma = {gamma_, gamma_};

  auto work = [&](std::size_t k) {
    std::vector<Lanes>& s = chunk_scratch_[k];
    s.resize(3 * max_degree_);
    Lanes* p = s.data();
    Lanes* wmax = p + max_degree_;
    Lanes* wmin = wmax + max_degree_;
    double total = 0.0;
    for (std::uint32_t kn = chunk_first_[k]; kn < chunk_first_[k + 1];
         ++kn) {
      const std::uint32_t base = flat_.net_first[kn];
      const std::size_t deg = flat_.net_first[kn + 1] - base;
      const double w = flat_.net_weight[kn];
      const Lanes weight = {w, w};
      const std::uint32_t* pos = &grad_pos_[base];
      const Lanes extent =
          deg == 2
              ? wa_net2(pl, flat_, base, gamma, weight, gpin_.data(), pos)
              : wa_net(pl, flat_, base, deg, gamma, weight, p, wmax, wmin,
                       gpin_.data(), pos);
      // The x extent, then the y extent, onto 0.0.
      total += w * ((0.0 + extent[0]) + extent[1]);
    }
    chunk_value_[k] = total;
  };

  util::run(pool_.get(), nchunks, work);

  // Ordered reduction: fixed chunk boundaries + fixed order make the
  // total independent of the thread count.
  double total = 0.0;
  for (const double v : chunk_value_) total += v;
  return total;
}

void SmoothWirelength::gradient(std::span<double> gx, std::span<double> gy,
                                double scale) const {
  // Gather per-pin gradients into the variables. Each variable's slots
  // are contiguous and summed in pin-slot order, so the gather is both
  // race-free and deterministic for any thread count.
  util::for_chunks(pool_.get(), var_first_.size() - 1, kMinVarsPerChunk,
                   [&](std::size_t, std::size_t v0, std::size_t v1) {
    for (std::size_t v = v0; v < v1; ++v) {
      Lanes sum = {0.0, 0.0};
      for (std::uint32_t i = var_first_[v]; i < var_first_[v + 1]; ++i) {
        sum += gpin_[i];
      }
      gx[v] += scale * sum[0];
      gy[v] += scale * sum[1];
    }
  });
}

}  // namespace dp::gp
