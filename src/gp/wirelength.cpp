#include "gp/wirelength.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/exp.hpp"
#include "util/thread_pool.hpp"

namespace dp::gp {

using netlist::NetId;

namespace {

using util::kLanesOf;
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
// arithmetic of its axis, so every operation of an axis shares one `Lanes`
// instruction with the other axis. With g = 1 / gamma and pins c[0..n) of
// one axis:
//   wmax[i] = exp((c[i] - max_c) g),   wmin[i] = exp((min_c - c[i]) g),
//   rmax = 1 / sum(wmax),              rmin = 1 / sum(wmin),
//   hi = sum(c wmax) rmax,             lo = sum(c wmin) rmin,
//   grad[i] = weight (wmax[i] rmax (1 + (c[i] - hi) g)
//                     - wmin[i] rmin (1 - (c[i] - lo) g)),
// with exp = util::exp, every sum accumulated from 0.0 in pin order. The
// kernels return hi - lo and write pin i's gradient to grad[pos[i]]. The
// extreme pins' arguments are +0, and util::exp(+0) is exactly 1. A
// four-lane vector holds two such lane pairs: a pin's wmax and wmin, or
// two 2-pin nets.

/// x = e^x in every lane; `near` skips util::exp's test for its far path
/// (util::exp_near), which the caller has ruled out.
inline void exp_lanes(Lanes& x, bool near) {
  x = near ? util::exp_near(x) : util::exp(x);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) inline void exp_lanes(util::Quad& x,
                                                      bool near) {
  x = near ? util::exp_near(x) : util::exp(x);
}
#endif

/// a = e^a and b = e^b, through W-wide exponentials: two two-lane calls,
/// or one four-lane call.
template <class W>
inline void exp_pair(Lanes& a, Lanes& b, bool near) {
  if constexpr (kLanesOf<W> == 2) {
    exp_lanes(a, near);
    exp_lanes(b, near);
  } else {
    W x = util::from_halves<W>([&](std::size_t k) {
            return k == 0 ? a : b;
          }).v;
    exp_lanes(x, near);
    a = util::half(x, 0);
    b = util::half(x, 1);
  }
}

/// A net of n >= 3 pins. `p`, `wmax` and `wmin` are scratch of n lanes.
/// Every exp argument lies between (min_c - max_c) g and 0, so one test of
/// that bound per net decides whether any weight can take exp's far path.
/// A pin's four weights take one W-wide exp_pair().
template <class W>
Lanes wa_net(const netlist::Placement& pl, const netlist::FlatNets& f,
             std::uint32_t base, std::size_t n, Lanes inv_gamma, Lanes weight,
             Lanes* p, Lanes* wmax, Lanes* wmin, Lanes* grad,
             const std::uint32_t* pos) {
  Lanes max_c = {-1e300, -1e300}, min_c = {1e300, 1e300};
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = pin_xy(pl, f, base + static_cast<std::uint32_t>(i));
    max_c = pick(max_c < p[i], p[i], max_c);
    min_c = pick(p[i] < min_c, p[i], min_c);
  }
  const LaneMask far = (min_c - max_c) * inv_gamma < util::exp_detail::kFar;
  const bool near = (far[0] | far[1]) == 0;
  const Lanes zero = {0.0, 0.0};
  Lanes smax = zero, amax = zero, smin = zero, amin = zero;
  for (std::size_t i = 0; i < n; ++i) {
    wmax[i] = (p[i] - max_c) * inv_gamma;
    wmin[i] = (min_c - p[i]) * inv_gamma;
    exp_pair<W>(wmax[i], wmin[i], near);
    smax += wmax[i];
    amax += p[i] * wmax[i];
    smin += wmin[i];
    amin += p[i] * wmin[i];
  }
  const Lanes rmax = 1.0 / smax, rmin = 1.0 / smin;
  const Lanes hi = amax * rmax;
  const Lanes lo = amin * rmin;
  for (std::size_t i = 0; i < n; ++i) {
    const Lanes ghi = wmax[i] * rmax * (1.0 + (p[i] - hi) * inv_gamma);
    const Lanes glo = wmin[i] * rmin * (1.0 - (p[i] - lo) * inv_gamma);
    grad[pos[i]] = weight * (ghi - glo);
  }
  return hi - lo;
}

/// One chunk's nets [first, last) and where their results go.
struct WaChunk {
  const netlist::Placement* pl;
  const netlist::FlatNets* f;
  const std::uint32_t* grad_pos;
  Lanes* grad;
  Lanes* scratch;  ///< 3 max_degree lanes
  std::size_t max_degree;
  std::uint32_t first, last;
  double inv_gamma;
};

/// The 2-pin nets kn, kn + 1, ..., one per two lanes of V, in closed
/// form. Both non-extreme weights of a net are e = exp((min_c - max_c) g),
/// so sum(wmax) = sum(wmin) = s = 1 + e in either pin order (0.0 + 1 + e
/// and 0.0 + e + 1 round alike), and the per-pin weights times the
/// reciprocal are q1 = 1 / s and qe = e q1. Returns each net's {x, y}
/// extent.
template <class V>
std::array<Lanes, kLanesOf<V> / 2> wa_net2(const WaChunk& c,
                                           std::uint32_t kn) {
  constexpr std::size_t kNets = kLanesOf<V> / 2;
  const netlist::FlatNets& f = *c.f;
  std::array<std::uint32_t, kNets> base;
  for (std::size_t k = 0; k < kNets; ++k) base[k] = f.net_first[kn + k];
  // Net k's {x, y} in lanes 2k and 2k + 1.
  const V p0 = util::from_halves<V>([&](std::size_t k) {
                 return pin_xy(*c.pl, f, base[k]);
               }).v;
  const V p1 = util::from_halves<V>([&](std::size_t k) {
                 return pin_xy(*c.pl, f, base[k] + 1);
               }).v;
  const V weight = util::from_halves<V>([&](std::size_t k) {
                     const double w = f.net_weight[kn + k];
                     return Lanes{w, w};
                   }).v;
  const V zero{};
  const V one = zero + 1.0;
  const auto up = p0 < p1;    // pin 1 is the max pin
  const auto down = p1 < p0;  // pin 1 is the min pin
  const V max_c = up ? p1 : p0, min_c = down ? p1 : p0;
  V e = (min_c - max_c) * c.inv_gamma;
  exp_lanes(e, false);
  const V q1 = one / (one + e), qe = e * q1;
  const V wmax0 = up ? e : one, wmax1 = up ? one : e;
  const V wmin0 = down ? e : one, wmin1 = down ? one : e;
  const V hi = ((zero + p0 * wmax0) + p1 * wmax1) * q1;
  const V lo = ((zero + p0 * wmin0) + p1 * wmin1) * q1;
  const V qmax0 = up ? qe : q1, qmax1 = up ? q1 : qe;
  const V qmin0 = down ? qe : q1, qmin1 = down ? q1 : qe;
  const V g0 = weight * (qmax0 * (1.0 + (p0 - hi) * c.inv_gamma) -
                         qmin0 * (1.0 - (p0 - lo) * c.inv_gamma));
  const V g1 = weight * (qmax1 * (1.0 + (p1 - hi) * c.inv_gamma) -
                         qmin1 * (1.0 - (p1 - lo) * c.inv_gamma));
  const V extent = hi - lo;
  std::array<Lanes, kNets> out;
  for (std::size_t k = 0; k < kNets; ++k) {
    c.grad[c.grad_pos[base[k]]] = util::half(g0, k);
    c.grad[c.grad_pos[base[k] + 1]] = util::half(g1, k);
    out[k] = util::half(extent, k);
  }
  return out;
}

/// The chunk's value, nets in order, on W-wide vectors; writes every
/// pin's gradient. With W four lanes wide, two consecutive 2-pin nets run
/// as one, and a 2-pin net without a 2-pin successor in its chunk runs
/// two-lane.
template <class W>
double wa_chunk(const WaChunk& c) {
  const netlist::FlatNets& f = *c.f;
  const Lanes inv_gamma = {c.inv_gamma, c.inv_gamma};
  Lanes* p = c.scratch;
  Lanes* wmax = p + c.max_degree;
  Lanes* wmin = wmax + c.max_degree;
  auto degree = [&](std::uint32_t kn) {
    return f.net_first[kn + 1] - f.net_first[kn];
  };
  // The x extent, then the y extent, onto 0.0.
  auto net_value = [&](std::uint32_t kn, Lanes extent) {
    return f.net_weight[kn] * ((0.0 + extent[0]) + extent[1]);
  };
  double total = 0.0;
  for (std::uint32_t kn = c.first; kn < c.last;) {
    if (degree(kn) != 2) {
      const std::uint32_t base = f.net_first[kn];
      const double w = f.net_weight[kn];
      total += net_value(
          kn, wa_net<W>(*c.pl, f, base, degree(kn), inv_gamma, Lanes{w, w},
                        p, wmax, wmin, c.grad, &c.grad_pos[base]));
      ++kn;
    } else if (kLanesOf<W> == 4 && kn + 1 < c.last && degree(kn + 1) == 2) {
      const auto extent = wa_net2<W>(c, kn);
      for (const Lanes e : extent) total += net_value(kn++, e);
    } else {
      total += net_value(kn, wa_net2<Lanes>(c, kn)[0]);
      ++kn;
    }
  }
  return total;
}

/// The two-lane and four-lane entry points: wa_chunk() and everything it
/// calls inlined (flatten), so that all of the four-lane code is compiled
/// for AVX2.
__attribute__((flatten)) double wa_chunk_two_lanes(const WaChunk& c) {
  return wa_chunk<Lanes>(c);
}

#if defined(__x86_64__)
__attribute__((target("avx2"), flatten)) double wa_chunk_four_lanes(
    const WaChunk& c) {
  return wa_chunk<util::Quad>(c);
}
#else
double wa_chunk_four_lanes(const WaChunk& c) { return wa_chunk_two_lanes(c); }
#endif

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

double SmoothWirelength::eval(const netlist::Placement& pl,
                              const VarMap& /*vars*/, std::span<double> gx,
                              std::span<double> gy, double scale) const {
  return evaluate(pl, util::widest_lanes(), gx, gy, scale);
}

double SmoothWirelength::evaluate(const netlist::Placement& pl,
                                  util::LaneWidth width, std::span<double> gx,
                                  std::span<double> gy, double scale) const {
  const std::size_t nchunks = chunk_first_.size() - 1;
  chunk_value_.assign(nchunks, 0.0);
  // Every slot is overwritten (not accumulated), so no zero-fill; chunks
  // write disjoint slots.
  gpin_.resize(flat_.pin_cell.size());
  chunk_scratch_.resize(nchunks);

  auto work = [&](std::size_t k) {
    std::vector<Lanes>& s = chunk_scratch_[k];
    s.resize(3 * max_degree_);
    const WaChunk chunk{&pl,         &flat_,      grad_pos_.data(),
                        gpin_.data(), s.data(),   max_degree_,
                        chunk_first_[k], chunk_first_[k + 1], 1.0 / gamma_};
    chunk_value_[k] = width == util::LaneWidth::kFour
                          ? wa_chunk_four_lanes(chunk)
                          : wa_chunk_two_lanes(chunk);
  };

  util::run(pool_.get(), nchunks, work);

  // Ordered reduction: fixed chunk boundaries + fixed order make the
  // total independent of the thread count.
  double total = 0.0;
  for (const double v : chunk_value_) total += v;

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
  return total;
}

}  // namespace dp::gp
