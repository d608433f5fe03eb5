#include "gp/wirelength.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/exp.hpp"
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
// extreme pins' arguments are +0, and util::exp(+0) is exactly 1.

/// A net of n >= 3 pins. `p`, `wmax` and `wmin` are scratch of n lanes.
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
  const Lanes zero = {0.0, 0.0};
  Lanes smax = zero, amax = zero, smin = zero, amin = zero;
  for (std::size_t i = 0; i < n; ++i) {
    wmax[i] = util::exp((p[i] - max_c) * inv_gamma);
    wmin[i] = util::exp((min_c - p[i]) * inv_gamma);
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

/// A 2-pin net in closed form. Both non-extreme weights are
/// e = exp((min_c - max_c) g), so sum(wmax) = sum(wmin) = s = 1 + e in
/// either pin order (0.0 + 1 + e and 0.0 + e + 1 round alike), and the
/// per-pin weights times the reciprocal are q1 = 1 / s and qe = e q1.
Lanes wa_net2(const netlist::Placement& pl, const netlist::FlatNets& f,
              std::uint32_t base, Lanes inv_gamma, Lanes weight, Lanes* grad,
              const std::uint32_t* pos) {
  const Lanes p0 = pin_xy(pl, f, base), p1 = pin_xy(pl, f, base + 1);
  const LaneMask up = p0 < p1;    // pin 1 is the max pin
  const LaneMask down = p1 < p0;  // pin 1 is the min pin
  const Lanes max_c = pick(up, p1, p0), min_c = pick(down, p1, p0);
  const Lanes e = util::exp((min_c - max_c) * inv_gamma);
  const Lanes one = {1.0, 1.0}, zero = {0.0, 0.0};
  const Lanes q1 = one / (one + e), qe = e * q1;
  const Lanes wmax0 = pick(up, e, one), wmax1 = pick(up, one, e);
  const Lanes wmin0 = pick(down, e, one), wmin1 = pick(down, one, e);
  const Lanes hi = ((zero + p0 * wmax0) + p1 * wmax1) * q1;
  const Lanes lo = ((zero + p0 * wmin0) + p1 * wmin1) * q1;
  const Lanes qmax0 = pick(up, qe, q1), qmax1 = pick(up, q1, qe);
  const Lanes qmin0 = pick(down, qe, q1), qmin1 = pick(down, q1, qe);
  grad[pos[0]] = weight * (qmax0 * (1.0 + (p0 - hi) * inv_gamma) -
                           qmin0 * (1.0 - (p0 - lo) * inv_gamma));
  grad[pos[1]] = weight * (qmax1 * (1.0 + (p1 - hi) * inv_gamma) -
                           qmin1 * (1.0 - (p1 - lo) * inv_gamma));
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
  const double g = 1.0 / gamma_;
  const Lanes inv_gamma = {g, g};

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
              ? wa_net2(pl, flat_, base, inv_gamma, weight, gpin_.data(), pos)
              : wa_net(pl, flat_, base, deg, inv_gamma, weight, p, wmax, wmin,
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
