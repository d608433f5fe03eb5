#include "gp/wirelength.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/thread_pool.hpp"

namespace dp::gp {

using netlist::NetId;

namespace {

/// The gradient gather's chunk minimum, in variables.
constexpr std::size_t kMinVarsPerChunk = 2048;

/// Weighted-average extent and per-pin gradient for one axis.
double wa_axis(const double* coord, std::size_t n, const double* wmax,
               const double* wmin, double gamma, double weight,
               double* grad) {
  double smax = 0.0, amax = 0.0, smin = 0.0, amin = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    smax += wmax[i];
    amax += coord[i] * wmax[i];
    smin += wmin[i];
    amin += coord[i] * wmin[i];
  }
  const double hi = amax / smax;
  const double lo = amin / smin;
  for (std::size_t i = 0; i < n; ++i) {
    const double ghi = wmax[i] / smax * (1.0 + (coord[i] - hi) / gamma);
    const double glo = wmin[i] / smin * (1.0 - (coord[i] - lo) / gamma);
    grad[i] = weight * (ghi - glo);
  }
  return hi - lo;
}

/// The max-shifted exponential weights of one net axis:
///   wmax[i] = exp((coord[i] - max_c) / gamma),
///   wmin[i] = exp((min_c - coord[i]) / gamma),
/// bit for bit (for any gamma other than 0 or NaN), with fewer exp()
/// calls. `imax`/`imin` are the first pins at max_c/min_c, or n if there
/// is none. Their argument is +0 / gamma = +-0, and exp(+-0) is exactly 1
/// (C Annex F). On a 2-pin net both remaining weights have the argument
/// (min_c - max_c) / gamma, so one exp() serves both. With finite
/// coordinates both extreme pins exist, so an axis costs 1 call on a
/// 2-pin net and 2n - 2 calls otherwise.
void exp_weights(const double* coord, std::size_t n, double max_c,
                 double min_c, std::size_t imax, std::size_t imin,
                 double gamma, double* wmax, double* wmin) {
  if (n == 2 && imax < 2 && imin < 2) {
    const double e = std::exp((min_c - max_c) / gamma);
    wmax[imax] = 1.0;
    wmax[1 - imax] = e;
    wmin[imin] = 1.0;
    wmin[1 - imin] = e;
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    wmax[i] = i == imax ? 1.0 : std::exp((coord[i] - max_c) / gamma);
    wmin[i] = i == imin ? 1.0 : std::exp((min_c - coord[i]) / gamma);
  }
}

}  // namespace

SmoothWirelength::SmoothWirelength(const netlist::Netlist& nl,
                                   WirelengthModel /*model*/, double gamma)
    : nl_(&nl), gamma_(gamma), flat_(nl, 2) {
  for (std::size_t kn = 0; kn < flat_.num_nets(); ++kn) {
    const std::size_t deg = flat_.net_first[kn + 1] - flat_.net_first[kn];
    max_degree_ = std::max(max_degree_, deg);
    exp_calls_ += 2 * (deg == 2 ? 1 : 2 * deg - 2);
  }

  // Gather transpose: each variable's pin slots, in slot order.
  const VarMap vars(nl);
  const std::size_t nv = vars.num_vars();
  var_first_.assign(nv + 1, 0);
  for (const std::uint32_t c : flat_.pin_cell) {
    const std::uint32_t v = vars.var(c);
    if (v != netlist::kInvalidId) ++var_first_[v + 1];
  }
  for (std::size_t v = 0; v < nv; ++v) var_first_[v + 1] += var_first_[v];
  var_slot_.resize(var_first_[nv]);
  std::vector<std::uint32_t> cursor(var_first_.begin(),
                                    var_first_.end() - 1);
  for (std::uint32_t s = 0; s < flat_.pin_cell.size(); ++s) {
    const std::uint32_t v = vars.var(flat_.pin_cell[s]);
    if (v != netlist::kInvalidId) var_slot_[cursor[v]++] = s;
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
  const std::size_t nchunks = flat_.num_chunks();
  chunk_value_.assign(nchunks, 0.0);
  // Every slot is overwritten (not accumulated), so no zero-fill.
  gpin_x_.resize(flat_.pin_cell.size());
  gpin_y_.resize(flat_.pin_cell.size());
  chunk_scratch_.resize(nchunks);
  const double gamma = gamma_;

  auto work = [&](std::size_t k) {
    std::vector<double>& s = chunk_scratch_[k];
    s.resize(3 * max_degree_);
    double* coord = s.data();
    double* wmax = coord + max_degree_;
    double* wmin = wmax + max_degree_;
    double total = 0.0;
    for (std::uint32_t kn = flat_.chunk_first[k];
         kn < flat_.chunk_first[k + 1]; ++kn) {
      const std::uint32_t base = flat_.net_first[kn];
      const std::size_t deg = flat_.net_first[kn + 1] - base;
      const double weight = flat_.net_weight[kn];
      double net_value = 0.0;
      // Per axis: gather coords, max-shift the exponents, evaluate.
      for (int axis = 0; axis < 2; ++axis) {
        for (std::size_t i = 0; i < deg; ++i) {
          const std::uint32_t c = flat_.pin_cell[base + i];
          coord[i] = axis == 0 ? pl[c].x + flat_.pin_dx[base + i]
                               : pl[c].y + flat_.pin_dy[base + i];
        }
        // std::max/std::min semantics: an extreme is replaced only by a
        // strictly larger / smaller coordinate, so max_c and min_c are the
        // bits of the first pins that reach them.
        double max_c = -1e300, min_c = 1e300;
        std::size_t imax = deg, imin = deg;  // deg: no such pin
        for (std::size_t i = 0; i < deg; ++i) {
          if (max_c < coord[i]) {
            max_c = coord[i];
            imax = i;
          }
          if (coord[i] < min_c) {
            min_c = coord[i];
            imin = i;
          }
        }
        exp_weights(coord, deg, max_c, min_c, imax, imin, gamma, wmax, wmin);
        double* grad = (axis == 0 ? gpin_x_.data() : gpin_y_.data()) + base;
        net_value += wa_axis(coord, deg, wmax, wmin, gamma, weight, grad);
      }
      total += weight * net_value;
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
  // are summed in fixed CSR order, so the gather is both race-free and
  // deterministic for any thread count.
  util::for_chunks(pool_.get(), var_first_.size() - 1, kMinVarsPerChunk,
                   [&](std::size_t, std::size_t v0, std::size_t v1) {
    for (std::size_t v = v0; v < v1; ++v) {
      double sx = 0.0, sy = 0.0;
      for (std::uint32_t s = var_first_[v]; s < var_first_[v + 1]; ++s) {
        sx += gpin_x_[var_slot_[s]];
        sy += gpin_y_[var_slot_[s]];
      }
      gx[v] += scale * sx;
      gy[v] += scale * sy;
    }
  });
}

}  // namespace dp::gp
