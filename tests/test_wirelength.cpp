#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "gp/global_placer.hpp"
#include "gp/wirelength.hpp"
#include "util/exp.hpp"
#include "util/lanes.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace dp::gp {
namespace {

using netlist::CellFunc;
using netlist::CellId;
using netlist::NetId;
using netlist::NetlistBuilder;
using netlist::Placement;

/// Two inverters on one net, centers at given points (pin offsets apply).
struct TwoCellFixture {
  TwoCellFixture() : builder(netlist::standard_library()) {
    a = builder.add_cell("a", CellFunc::kInv);
    b = builder.add_cell("b", CellFunc::kInv);
    const NetId n = builder.add_net("n");
    builder.connect(a, "Y", n);
    builder.connect(b, "A", n);
    nl.emplace(builder.take());
  }
  NetlistBuilder builder;
  CellId a, b;
  std::optional<netlist::Netlist> nl;
};

// ---- 0-ulp reference -------------------------------------------------------
//
// A plain copy of the SmoothWirelength kernel: one axis at a time, scalar
// arithmetic, no 2-pin closed form, and an exp() call for every weight of
// every pin. In its default arithmetic (Arith::kOwnExp) the exps are
// util::exp, 1 / gamma and the reciprocals of the weight sums are taken
// once and multiplied in, and the optimized kernel must reproduce its
// value and gradient bit for bit. Arith::kLibmDivisions is the kernel's
// arithmetic before it owned its exp: std::exp, and a division wherever
// kOwnExp multiplies by a reciprocal.
namespace reference {

using netlist::PinId;

constexpr std::size_t kMinPinsPerChunk = 2048;
constexpr std::size_t kMaxChunks = 64;

enum class Arith { kOwnExp, kLibmDivisions };

/// util::exp of one value.
double own_exp(double x) { return util::exp(util::Lanes{x, x})[0]; }

double wa_axis(const double* coord, std::size_t n, const double* wmax,
               const double* wmin, double gamma, double weight,
               double* grad, Arith arith) {
  double smax = 0.0, amax = 0.0, smin = 0.0, amin = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    smax += wmax[i];
    amax += coord[i] * wmax[i];
    smin += wmin[i];
    amin += coord[i] * wmin[i];
  }
  if (arith == Arith::kLibmDivisions) {
    const double hi = amax / smax;
    const double lo = amin / smin;
    if (grad != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        const double ghi = wmax[i] / smax * (1.0 + (coord[i] - hi) / gamma);
        const double glo = wmin[i] / smin * (1.0 - (coord[i] - lo) / gamma);
        grad[i] = weight * (ghi - glo);
      }
    }
    return hi - lo;
  }
  const double g = 1.0 / gamma;
  const double rmax = 1.0 / smax, rmin = 1.0 / smin;
  const double hi = amax * rmax;
  const double lo = amin * rmin;
  if (grad != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const double ghi = wmax[i] * rmax * (1.0 + (coord[i] - hi) * g);
      const double glo = wmin[i] * rmin * (1.0 - (coord[i] - lo) * g);
      grad[i] = weight * (ghi - glo);
    }
  }
  return hi - lo;
}

class SmoothWirelength {
 public:
  SmoothWirelength(const netlist::Netlist& nl, double gamma,
                   Arith arith = Arith::kOwnExp);
  void set_net_weight_scale(std::span<const double> scale);
  double eval(const netlist::Placement& pl, const VarMap& vars,
              std::span<double> gx, std::span<double> gy) const;
  double value(const netlist::Placement& pl) const {
    return kernel(pl, false);
  }

 private:
  double kernel(const netlist::Placement& pl, bool with_grad) const;
  void bind_vars(const VarMap& vars) const;

  const netlist::Netlist* nl_;
  double gamma_;
  Arith arith_;
  std::vector<std::uint32_t> net_first_;
  std::vector<double> net_weight_;
  std::vector<netlist::NetId> net_id_;
  std::vector<std::uint32_t> pin_cell_;
  std::vector<double> pin_dx_, pin_dy_;
  std::vector<std::uint32_t> chunk_first_;
  std::size_t max_degree_ = 0;
  mutable const VarMap* bound_vars_ = nullptr;
  mutable std::size_t bound_num_vars_ = 0;
  mutable std::vector<std::uint32_t> var_first_, var_slot_;
  mutable std::vector<double> gpin_x_, gpin_y_;
  mutable std::vector<double> chunk_value_;
  mutable std::vector<std::vector<double>> chunk_scratch_;
};

SmoothWirelength::SmoothWirelength(const netlist::Netlist& nl, double gamma,
                                   Arith arith)
    : nl_(&nl), gamma_(gamma), arith_(arith) {
  std::size_t kept_pins = 0, kept_nets = 0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const std::size_t deg = nl.net_pins(n).size();
    if (deg < 2) continue;
    ++kept_nets;
    kept_pins += deg;
    max_degree_ = std::max(max_degree_, deg);
  }
  net_first_.push_back(0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const auto pins = nl.net_pins(n);
    if (pins.size() < 2) continue;
    net_weight_.push_back(nl.net(n).weight);
    net_id_.push_back(n);
    for (const PinId p : pins) {
      const auto& pin = nl.pin(p);
      pin_cell_.push_back(pin.cell);
      pin_dx_.push_back(pin.offset_x);
      pin_dy_.push_back(pin.offset_y);
    }
    net_first_.push_back(static_cast<std::uint32_t>(pin_cell_.size()));
  }
  const std::size_t chunks = std::clamp<std::size_t>(
      kept_pins / kMinPinsPerChunk, 1, kMaxChunks);
  const std::size_t per_chunk = (kept_pins + chunks - 1) / chunks;
  chunk_first_.push_back(0);
  std::size_t acc = 0;
  for (std::size_t kn = 0; kn < kept_nets; ++kn) {
    acc += net_first_[kn + 1] - net_first_[kn];
    if (acc >= per_chunk && kn + 1 < kept_nets) {
      chunk_first_.push_back(static_cast<std::uint32_t>(kn + 1));
      acc = 0;
    }
  }
  chunk_first_.push_back(static_cast<std::uint32_t>(kept_nets));
}

void SmoothWirelength::set_net_weight_scale(std::span<const double> scale) {
  for (std::size_t kn = 0; kn < net_id_.size(); ++kn) {
    const double base = nl_->net(net_id_[kn]).weight;
    net_weight_[kn] = scale.empty() ? base : base * scale[net_id_[kn]];
  }
}

double SmoothWirelength::kernel(const netlist::Placement& pl,
                                bool with_grad) const {
  const std::size_t nchunks = chunk_first_.size() - 1;
  chunk_value_.assign(nchunks, 0.0);
  if (with_grad) {
    gpin_x_.resize(pin_cell_.size());
    gpin_y_.resize(pin_cell_.size());
  }
  chunk_scratch_.resize(nchunks);
  const double gamma = gamma_;

  auto work = [&](std::size_t k) {
    std::vector<double>& s = chunk_scratch_[k];
    s.resize(3 * max_degree_);
    double* coord = s.data();
    double* wmax = coord + max_degree_;
    double* wmin = wmax + max_degree_;
    double total = 0.0;
    for (std::uint32_t kn = chunk_first_[k]; kn < chunk_first_[k + 1];
         ++kn) {
      const std::uint32_t base = net_first_[kn];
      const std::size_t deg = net_first_[kn + 1] - base;
      const double weight = net_weight_[kn];
      double net_value = 0.0;
      for (int axis = 0; axis < 2; ++axis) {
        double max_c = -1e300, min_c = 1e300;
        if (axis == 0) {
          for (std::size_t i = 0; i < deg; ++i) {
            const std::uint32_t c = pin_cell_[base + i];
            coord[i] = pl[c].x + pin_dx_[base + i];
            max_c = std::max(max_c, coord[i]);
            min_c = std::min(min_c, coord[i]);
          }
        } else {
          for (std::size_t i = 0; i < deg; ++i) {
            const std::uint32_t c = pin_cell_[base + i];
            coord[i] = pl[c].y + pin_dy_[base + i];
            max_c = std::max(max_c, coord[i]);
            min_c = std::min(min_c, coord[i]);
          }
        }
        if (arith_ == Arith::kLibmDivisions) {
          for (std::size_t i = 0; i < deg; ++i) {
            wmax[i] = std::exp((coord[i] - max_c) / gamma);
            wmin[i] = std::exp((min_c - coord[i]) / gamma);
          }
        } else {
          const double g = 1.0 / gamma;
          for (std::size_t i = 0; i < deg; ++i) {
            wmax[i] = own_exp((coord[i] - max_c) * g);
            wmin[i] = own_exp((min_c - coord[i]) * g);
          }
        }
        double* grad = nullptr;
        if (with_grad) {
          grad = (axis == 0 ? gpin_x_.data() : gpin_y_.data()) + base;
        }
        net_value +=
            wa_axis(coord, deg, wmax, wmin, gamma, weight, grad, arith_);
      }
      total += weight * net_value;
    }
    chunk_value_[k] = total;
  };
  for (std::size_t k = 0; k < nchunks; ++k) work(k);

  double total = 0.0;
  for (const double v : chunk_value_) total += v;
  return total;
}

void SmoothWirelength::bind_vars(const VarMap& vars) const {
  if (bound_vars_ == &vars && bound_num_vars_ == vars.num_vars()) return;
  const std::size_t nv = vars.num_vars();
  var_first_.assign(nv + 1, 0);
  for (const std::uint32_t c : pin_cell_) {
    const std::uint32_t v = vars.var(c);
    if (v != netlist::kInvalidId) ++var_first_[v + 1];
  }
  for (std::size_t v = 0; v < nv; ++v) var_first_[v + 1] += var_first_[v];
  var_slot_.resize(var_first_[nv]);
  std::vector<std::uint32_t> cursor(var_first_.begin(),
                                    var_first_.end() - 1);
  for (std::uint32_t s = 0; s < pin_cell_.size(); ++s) {
    const std::uint32_t v = vars.var(pin_cell_[s]);
    if (v != netlist::kInvalidId) var_slot_[cursor[v]++] = s;
  }
  bound_vars_ = &vars;
  bound_num_vars_ = nv;
}

double SmoothWirelength::eval(const netlist::Placement& pl,
                              const VarMap& vars, std::span<double> gx,
                              std::span<double> gy) const {
  bind_vars(vars);
  const double total = kernel(pl, true);
  for (std::size_t v = 0; v < vars.num_vars(); ++v) {
    double sx = 0.0, sy = 0.0;
    for (std::uint32_t s = var_first_[v]; s < var_first_[v + 1]; ++s) {
      sx += gpin_x_[var_slot_[s]];
      sy += gpin_y_[var_slot_[s]];
    }
    gx[v] += sx;
    gy[v] += sy;
  }
  return total;
}

}  // namespace reference

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs the reference and the kernel under test on `pl` at 1, 2 and 4
/// threads, and asserts value (through eval() and value())
/// and gradient equal to the last bit. Gradients accumulate onto a shared
/// non-zero prefill, as the kernel's contract is +=.
void expect_wl_bitwise(const netlist::Netlist& nl, const Placement& pl,
                       double gamma, std::span<const double> scale = {}) {
  const VarMap vars(nl);
  const std::size_t n = vars.num_vars();
  std::vector<double> prefill(n);
  util::Rng rng(3);
  for (double& g : prefill) g = rng.uniform(-1.0, 1.0);
  reference::SmoothWirelength ref(nl, gamma);
  if (!scale.empty()) ref.set_net_weight_scale(scale);
  std::vector<double> rgx = prefill, rgy = prefill;
  const double rv = ref.eval(pl, vars, rgx, rgy);
  ASSERT_EQ(bits(ref.value(pl)), bits(rv));
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("gamma=" + std::to_string(gamma) +
                 " threads=" + std::to_string(threads));
    SmoothWirelength wl(nl, WirelengthModel::kWa, gamma);
    if (!scale.empty()) wl.set_net_weight_scale(scale);
    wl.set_thread_pool(std::make_shared<util::ThreadPool>(threads));
    std::vector<double> gx = prefill, gy = prefill;
    EXPECT_EQ(bits(wl.eval(pl, vars, gx, gy)), bits(rv));
    EXPECT_EQ(bits(wl.value(pl, vars)), bits(rv));
    std::size_t mismatches = 0;
    for (std::size_t v = 0; v < n; ++v) {
      mismatches += bits(gx[v]) != bits(rgx[v]) ||
                    bits(gy[v]) != bits(rgy[v]);
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

/// make_scaled(4000) after 10 global-placement outer iterations (the
/// spread state most evaluations see) and the GP gamma of the last one.
struct Spread4k {
  Spread4k() : bench(dpgen::make_scaled(4000)) {
    GpOptions opt;
    opt.max_outer = 10;
    opt.stop_overflow = 0.0;
    spread = bench.placement;
    const GpResult r =
        GlobalPlacer(bench.netlist, bench.design, opt).place(spread);
    gamma = r.trace.back().gamma;
  }
  dpgen::Benchmark bench;
  Placement spread;
  double gamma = 0.0;
};

const Spread4k& spread4k() {
  static const Spread4k s;
  return s;
}

TEST(WirelengthBitwise, SpreadPlacementSeveralGammas) {
  const Spread4k& s = spread4k();
  for (const double gamma : {s.gamma * 4.0, s.gamma, s.gamma / 8.0, 1e-3}) {
    expect_wl_bitwise(s.bench.netlist, s.spread, gamma);
  }
}

TEST(WirelengthBitwise, QuantizedPlacementHasTies) {
  // Positions rounded to a coarse grid: most multi-pin nets tie at their
  // max and min, many 2-pin nets coincide on one axis.
  const Spread4k& s = spread4k();
  Placement pl = s.spread;
  for (auto& p : pl) p = {std::round(p.x / 4.0) * 4.0,
                          std::round(p.y / 4.0) * 4.0};
  expect_wl_bitwise(s.bench.netlist, pl, s.gamma);
}

TEST(WirelengthBitwise, PiledStartAndNetWeightScale) {
  const Spread4k& s = spread4k();
  const auto& nl = s.bench.netlist;
  std::vector<double> scale(nl.num_nets());
  util::Rng rng(9);
  for (double& w : scale) w = rng.uniform(0.5, 4.0);
  expect_wl_bitwise(nl, s.spread, s.gamma, scale);
  expect_wl_bitwise(nl, s.bench.placement, 1.0, scale);
}

// The kernel's arithmetic against its arithmetic before it owned its exp
// (std::exp and divisions), on the spread make_scaled(4000) placement:
// util::exp is within 1 ulp of std::exp, and each reciprocal multiply
// within 1 ulp of the division it replaced, so value and gradient move
// by rounding alone (measured: value 2e-16, gradient 9e-14 of its largest
// entry at gamma / 8). A gradient entry that cancels to near 0 has no
// relative accuracy, so the gradient's bound is relative to the largest.
TEST(WirelengthArithmetic, CloseToLibmDivisions) {
  const Spread4k& s = spread4k();
  const auto& nl = s.bench.netlist;
  const VarMap vars(nl);
  const std::size_t n = vars.num_vars();
  for (const double gamma : {s.gamma * 4.0, s.gamma, s.gamma / 8.0}) {
    SCOPED_TRACE("gamma=" + std::to_string(gamma));
    const reference::SmoothWirelength old(
        nl, gamma, reference::Arith::kLibmDivisions);
    std::vector<double> ogx(n, 0.0), ogy(n, 0.0);
    const double ov = old.eval(s.spread, vars, ogx, ogy);
    const SmoothWirelength wl(nl, WirelengthModel::kWa, gamma);
    std::vector<double> gx(n, 0.0), gy(n, 0.0);
    const double v = wl.eval(s.spread, vars, gx, gy);
    double gmax = 0.0, dmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      gmax = std::max({gmax, std::abs(ogx[i]), std::abs(ogy[i])});
      dmax = std::max({dmax, std::abs(gx[i] - ogx[i]),
                       std::abs(gy[i] - ogy[i])});
    }
    EXPECT_LE(std::abs(v - ov), 1e-14 * std::abs(ov));
    EXPECT_LE(dmax, 1e-12 * gmax);
  }
}

/// Hand-built nets over INV cells, whose input pin A sits left of the
/// center and output pin Y right of it (offset_y is 0 for both).
struct HandNets {
  HandNets() : builder(netlist::standard_library()) {
    for (int i = 0; i < 9; ++i) {
      cells.push_back(
          builder.add_cell(std::string("c").append(std::to_string(i)),
                           CellFunc::kInv));
    }
    // 2-pin net between two input pins: coincident when the cells are.
    const NetId two = builder.add_net("two");
    builder.connect(cells[0], "A", two);
    builder.connect(cells[1], "A", two);
    // 5-pin net: driver c2.Y, sinks c3..c6 on their A pins.
    const NetId five = builder.add_net("five");
    builder.connect(cells[2], "Y", five);
    for (std::size_t i = 3; i <= 6; ++i) builder.connect(cells[i], "A", five);
    // 2-pin driver-to-sink net, c7.Y -> c8.A.
    const NetId pair = builder.add_net("pair");
    builder.connect(cells[7], "Y", pair);
    builder.connect(cells[8], "A", pair);
    nl.emplace(builder.take());
  }
  NetlistBuilder builder;
  std::vector<CellId> cells;
  std::optional<netlist::Netlist> nl;
};

TEST(WirelengthBitwise, CoincidentTiedAndOffsetExtremes) {
  HandNets h;
  const auto& nl = *h.nl;
  const auto& c = h.cells;
  Placement pl(nl.num_cells());
  // Coincident 2-pin net (min_c == max_c on both axes).
  pl[c[0]] = {3.0, 2.0};
  pl[c[1]] = {3.0, 2.0};
  // 5-pin net tied at the max (c3, c4) and at the min (c5, c6) on both
  // axes, driver in between.
  pl[c[2]] = {2.0, 1.0};
  pl[c[3]] = {5.0, 4.0};
  pl[c[4]] = {5.0, 4.0};
  pl[c[5]] = {0.0, -1.0};
  pl[c[6]] = {0.0, -1.0};
  // c7's center is left of c8's, but its Y pin lies right of c8's A pin:
  // the pin offsets, not the centers, decide the extremes.
  const double w = nl.cell_width(c[7]);
  pl[c[7]] = {1.0, 0.0};
  pl[c[8]] = {1.0 + w / 8.0, 0.0};
  ASSERT_GT(nl.pin_position(nl.net_pins(2)[0], pl).x,
            nl.pin_position(nl.net_pins(2)[1], pl).x);
  for (const double gamma : {0.5, 1.0, 7.0}) {
    expect_wl_bitwise(nl, pl, gamma);
  }
  // Everything piled on one point: every net coincides on both axes.
  Placement piled(nl.num_cells(), geom::Point{1.5, 1.5});
  expect_wl_bitwise(nl, piled, 1.0);
}

// Ties at the extremes of a net of >= 3 pins. Each axis of HandNets' 5-pin
// net takes one of these layouts, given as pin positions in net pin order
// (c2.Y first): all pins coincident, so the first pin is both extremes;
// two pins tied at max_c and two at min_c, the max pair first; and the
// same ties with the min pair first and c2.Y at the max.
TEST(WirelengthBitwise, TiedExtremeLayouts) {
  HandNets h;
  const auto& nl = *h.nl;
  const auto pins = nl.net_pins(1);
  ASSERT_EQ(pins.size(), 5u);
  using Layout = std::vector<double>;
  const std::vector<Layout> layouts = {{2.5, 2.5, 2.5, 2.5, 2.5},
                                       {1.0, 4.0, 4.0, -2.0, -2.0},
                                       {6.0, -1.0, -1.0, 6.0, 0.5}};
  Placement pl(nl.num_cells());
  util::Rng rng(13);
  for (auto& p : pl) p = {rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
  for (const Layout& x : layouts) {
    for (const Layout& y : layouts) {
      SCOPED_TRACE("x=" + std::to_string(x[0]) + " y=" + std::to_string(y[0]));
      for (std::size_t i = 0; i < pins.size(); ++i) {
        const netlist::Pin& pin = nl.pin(pins[i]);
        pl[pin.cell] = {x[i] - pin.offset_x, y[i] - pin.offset_y};
      }
      for (std::size_t i = 0; i < pins.size(); ++i) {
        const geom::Point at = nl.pin_position(pins[i], pl);
        ASSERT_EQ(at.x, x[i]);
        ASSERT_EQ(at.y, y[i]);
      }
      for (const double gamma : {0.5, 3.0}) expect_wl_bitwise(nl, pl, gamma);
    }
  }
}

/// Two fixed chunks of INV-cell nets, each net on cells of its own, laid
/// out around the kernel's two paths (2-pin nets and larger ones):
///   chunk 0: twelve 3-pin nets, then 1,007 2-pin nets (an odd count);
///   chunk 1: a 5-pin net, 1,011 2-pin nets, five 3-pin and two 4-pin nets,
/// so a run of 2-pin nets ends chunk 0 and a larger net opens chunk 1.
/// Every 2-pin net joins two A pins, which coincide where the cells do.
struct ChunkEdgeNets {
  ChunkEdgeNets() : builder(netlist::standard_library()) {
    add(3, 12);
    add(2, 1007);
    add(5, 1);
    add(2, 1011);
    add(3, 5);
    add(4, 2);
    nl.emplace(builder.take());
  }
  /// `count` nets of `degree` pins: a driver Y pin and sinks' A pins,
  /// except on 2-pin nets, which join two A pins.
  void add(std::size_t degree, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      const NetId n = builder.add_net(
          std::string("n").append(std::to_string(builder.num_nets())));
      for (std::size_t i = 0; i < degree; ++i) {
        const CellId c = builder.add_cell(
            std::string("c").append(std::to_string(builder.num_cells())),
            CellFunc::kInv);
        builder.connect(c, i == 0 && degree > 2 ? "Y" : "A", n);
        net_cells.resize(builder.num_nets());
        net_cells.back().push_back(c);
      }
    }
  }
  NetlistBuilder builder;
  std::vector<std::vector<CellId>> net_cells;  ///< by NetId
  std::optional<netlist::Netlist> nl;
};

TEST(WirelengthBitwise, TwoPinRunsAtChunkEdges) {
  const ChunkEdgeNets h;
  const auto& nl = *h.nl;
  const SmoothWirelength probe(nl, WirelengthModel::kWa, 1.0);
  const netlist::FlatNets& f = probe.nets();
  const std::vector<std::uint32_t> chunks = wirelength_chunks(f);
  ASSERT_EQ(chunks.size(), 3u);
  ASSERT_EQ(chunks[1], 12u + 1007u);
  ASSERT_EQ(f.net_first[chunks[1]] - f.net_first[chunks[1] - 1], 2u);
  ASSERT_EQ(f.net_first[chunks[1] + 1] - f.net_first[chunks[1]], 5u);

  // Random positions; every third 2-pin net coincides on both axes and
  // every third but one on the y axis alone.
  Placement pl(nl.num_cells());
  util::Rng rng(21);
  for (auto& p : pl) p = {rng.uniform(0.0, 60.0), rng.uniform(0.0, 40.0)};
  std::size_t two_pin = 0;
  for (const auto& cells : h.net_cells) {
    if (cells.size() != 2) continue;
    if (two_pin % 3 == 0) pl[cells[1]] = pl[cells[0]];
    if (two_pin % 3 == 1) pl[cells[1]].y = pl[cells[0]].y;
    ++two_pin;
  }
  for (const double gamma : {0.3, 1.0, 6.0}) {
    expect_wl_bitwise(nl, pl, gamma);
  }
}

// ---- two-lane and four-lane kernels ------------------------------------------
//
// value() takes a pin's four weights, and two consecutive 2-pin nets, in
// one four-lane exp on AVX2 hosts, and two lanes at a time elsewhere; both
// must give the same bits.

/// Whether the four-lane kernels run here. The tests comparing the two
/// widths skip themselves where they do not.
bool four_lanes() {
  return util::widest_lanes() == util::LaneWidth::kFour;
}
constexpr const char* kNoFourLanes =
    "no four-lane kernels here: they need an x86-64 build on an AVX2 host";

/// Runs evaluate() at both lane widths on `pl` at 1 and 3 threads and
/// asserts equal values and gradients; `scale` scales the net weights.
void expect_lane_widths_agree(const netlist::Netlist& nl, const Placement& pl,
                              double gamma,
                              std::span<const double> scale = {}) {
  const VarMap vars(nl);
  const std::size_t n = vars.num_vars();
  for (const std::size_t threads : {1u, 3u}) {
    SCOPED_TRACE("gamma=" + std::to_string(gamma) +
                 " threads=" + std::to_string(threads));
    SmoothWirelength wl(nl, WirelengthModel::kWa, gamma);
    if (!scale.empty()) wl.set_net_weight_scale(scale);
    wl.set_thread_pool(std::make_shared<util::ThreadPool>(threads));
    std::vector<double> gx2(n, 0.0), gy2(n, 0.0), gx4(n, 0.0), gy4(n, 0.0);
    const double v2 = wl.evaluate(pl, util::LaneWidth::kTwo);
    wl.gradient(gx2, gy2, 1.0);
    const double v4 = wl.evaluate(pl, util::LaneWidth::kFour);
    wl.gradient(gx4, gy4, 1.0);
    EXPECT_EQ(bits(v2), bits(v4));
    std::size_t mismatches = 0;
    for (std::size_t v = 0; v < n; ++v) {
      mismatches += bits(gx2[v]) != bits(gx4[v]) ||
                    bits(gy2[v]) != bits(gy4[v]);
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(WirelengthLanes, SpreadPlacement) {
  if (!four_lanes()) GTEST_SKIP() << kNoFourLanes;
  const Spread4k& s = spread4k();
  for (const double gamma : {s.gamma * 4.0, s.gamma, s.gamma / 8.0, 1e-3}) {
    expect_lane_widths_agree(s.bench.netlist, s.spread, gamma);
  }
  expect_lane_widths_agree(s.bench.netlist, s.bench.placement, 1.0);
  std::vector<double> scale(s.bench.netlist.num_nets());
  util::Rng rng(9);
  for (double& w : scale) w = rng.uniform(0.5, 4.0);
  expect_lane_widths_agree(s.bench.netlist, s.spread, s.gamma, scale);
}

// 2-pin nets pair up four lanes wide only with a 2-pin successor in their
// chunk: ChunkEdgeNets ends chunk 0 on an odd run of 2-pin nets, and
// HandNets' 2-pin nets have no 2-pin neighbour. At gamma 0.05 most spans
// are far below -512 gammas, so pairs mix far and near lanes.
TEST(WirelengthLanes, TwoPinNetsAtChunkEndsAndAlone) {
  if (!four_lanes()) GTEST_SKIP() << kNoFourLanes;
  const ChunkEdgeNets h;
  Placement pl(h.nl->num_cells());
  util::Rng rng(21);
  for (auto& p : pl) p = {rng.uniform(0.0, 60.0), rng.uniform(0.0, 40.0)};
  // Every net weighted differently, so two nets in one vector cannot
  // trade their weights unnoticed.
  std::vector<double> scale(h.nl->num_nets());
  for (double& w : scale) w = rng.uniform(0.5, 4.0);
  for (const double gamma : {0.05, 0.3, 1.0, 6.0}) {
    expect_lane_widths_agree(*h.nl, pl, gamma);
    expect_lane_widths_agree(*h.nl, pl, gamma, scale);
  }
  const HandNets hand;
  Placement hp(hand.nl->num_cells());
  for (auto& p : hp) p = {rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
  for (const double gamma : {0.5, 3.0}) {
    expect_lane_widths_agree(*hand.nl, hp, gamma);
  }
}

// A net's weights skip exp's far test when the net's span bounds every
// argument above -512 (util::exp_detail::kFar) and take it otherwise.
// Here HandNets' 5-pin net spans 1000 on the x axis and 1 on the y axis,
// and its 2-pin nets 600 and 0.5, so at gamma 1 one axis of each is far
// and the other near: both widths, and the scalar reference, must agree.
TEST(WirelengthLanes, SpansBeyondTheFarBound) {
  const HandNets h;
  const auto& nl = *h.nl;
  const auto& c = h.cells;
  Placement pl(nl.num_cells());
  pl[c[0]] = {0.0, 2.0};
  pl[c[1]] = {600.0, 2.5};
  pl[c[2]] = {500.0, 3.0};
  pl[c[3]] = {0.0, 3.5};
  pl[c[4]] = {1000.0, 3.0};
  pl[c[5]] = {250.0, 2.5};
  pl[c[6]] = {999.0, 3.25};
  pl[c[7]] = {10.0, 0.0};
  pl[c[8]] = {610.0, 0.5};
  const double gamma = 1.0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    double lo = 1e300, hi = -1e300;
    for (const netlist::PinId pin : nl.net_pins(n)) {
      const double x = nl.pin_position(pin, pl).x;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    ASSERT_LT((lo - hi) / gamma, util::exp_detail::kFar) << "net " << n;
  }
  expect_wl_bitwise(nl, pl, gamma);
  if (!four_lanes()) GTEST_SKIP() << kNoFourLanes;
  expect_lane_widths_agree(nl, pl, gamma);
}

TEST(WirelengthChunks, PinBalanced) {
  const dpgen::Benchmark bench = dpgen::make_scaled(4000);
  const netlist::FlatNets flat(bench.netlist, 2);
  ASSERT_GT(flat.pin_cell.size(), 4 * kMinPinsPerChunk);
  const std::vector<std::uint32_t> first = wirelength_chunks(flat);
  const std::size_t chunks = first.size() - 1;
  ASSERT_GE(chunks, 2u);
  EXPECT_LE(chunks, util::kMaxChunks);
  EXPECT_EQ(first.front(), 0u);
  EXPECT_EQ(first.back(), flat.num_nets());
  for (std::size_t k = 0; k < chunks; ++k) {
    ASSERT_LT(first[k], first[k + 1]);
    if (k + 1 == chunks) continue;
    EXPECT_GE(flat.net_first[first[k + 1]] - flat.net_first[first[k]],
              kMinPinsPerChunk)
        << "chunk " << k;
  }

  // One kept net makes one chunk.
  HandNets h;
  const netlist::FlatNets two(*h.nl, 2);
  EXPECT_EQ(wirelength_chunks(two),
            (std::vector<std::uint32_t>{
                0, static_cast<std::uint32_t>(two.num_nets())}));
}

TEST(Hpwl, TwoPinNetExact) {
  TwoCellFixture f;
  Placement pl(2);
  pl[f.a] = {0.0, 0.0};
  pl[f.b] = {3.0, 4.0};
  // Pin offsets shift the exact value; compute from pin positions.
  const auto& nl = *f.nl;
  geom::Rect box;
  for (auto p : nl.net_pins(0)) box.expand(nl.pin_position(p, pl));
  EXPECT_DOUBLE_EQ(eval::hpwl(nl, pl), box.half_perimeter());
}

TEST(Hpwl, SinglePinNetIsZero) {
  NetlistBuilder b(netlist::standard_library());
  const CellId c = b.add_cell("c", CellFunc::kInv);
  const NetId n = b.add_net("n");
  b.connect(c, "Y", n);
  const auto nl = b.take();
  Placement pl(1);
  pl[c] = {5, 5};
  EXPECT_DOUBLE_EQ(eval::hpwl(nl, pl), 0.0);
}

TEST(Hpwl, NetWeightScales) {
  NetlistBuilder b(netlist::standard_library());
  const CellId c1 = b.add_cell("c1", CellFunc::kInv);
  const CellId c2 = b.add_cell("c2", CellFunc::kInv);
  const NetId n = b.add_net("n", 3.0);
  b.connect(c1, "Y", n);
  b.connect(c2, "A", n);
  const auto nl = b.take();
  Placement pl(2);
  pl[c1] = {0, 0};
  pl[c2] = {1, 0};
  EXPECT_DOUBLE_EQ(eval::hpwl(nl, pl),
                   3.0 * eval::net_hpwl(nl, n, pl));
}

TEST(SmoothWirelength, WaLowerBoundsHpwl) {
  TwoCellFixture f;
  Placement pl(2);
  pl[f.a] = {0, 0};
  pl[f.b] = {7, 2};
  SmoothWirelength wa(*f.nl, WirelengthModel::kWa, 1.0);
  EXPECT_LE(wa.value(pl, VarMap(*f.nl)), eval::hpwl(*f.nl, pl) + 1e-9);
}

TEST(SmoothWirelength, ApproachesHpwlAsGammaShrinks) {
  TwoCellFixture f;
  Placement pl(2);
  pl[f.a] = {0, 0};
  pl[f.b] = {10, 6};
  const double exact = eval::hpwl(*f.nl, pl);
  const VarMap vars(*f.nl);
  SmoothWirelength model(*f.nl, WirelengthModel::kWa, 4.0);
  const double loose = std::abs(model.value(pl, vars) - exact);
  model.set_gamma(0.05);
  const double tight = std::abs(model.value(pl, vars) - exact);
  EXPECT_LT(tight, loose);
  EXPECT_LT(tight, 0.2);
}

TEST(SmoothWirelength, StableForDistantCells) {
  TwoCellFixture f;
  Placement pl(2);
  pl[f.a] = {0, 0};
  pl[f.b] = {1e6, 1e6};  // would overflow exp() without max-shift
  SmoothWirelength model(*f.nl, WirelengthModel::kWa, 0.5);
  EXPECT_TRUE(std::isfinite(model.value(pl, VarMap(*f.nl))));
}

/// Finite-difference gradient validation on a random small netlist.
TEST(SmoothWirelength, GradientMatchesFiniteDifference) {
  // A small ALU slice provides multi-pin nets with shared cells.
  dpgen::Generator gen("t", 3);
  auto a = gen.input_bus("a", 4);
  auto b = gen.input_bus("b", 4);
  gen.add_alu("alu", a, b);
  const dpgen::Benchmark bench = gen.finish();
  const auto& nl = bench.netlist;

  VarMap vars(nl);
  Placement pl = bench.placement;
  util::Rng rng(17);
  for (std::size_t v = 0; v < vars.num_vars(); ++v) {
    pl[vars.cell(v)] = {rng.uniform(0, 10), rng.uniform(0, 10)};
  }

  SmoothWirelength model(nl, WirelengthModel::kWa, 0.8);
  const std::size_t n = vars.num_vars();
  std::vector<double> gx(n, 0.0), gy(n, 0.0);
  model.eval(pl, vars, gx, gy);

  const double h = 1e-5;
  for (std::size_t v = 0; v < std::min<std::size_t>(n, 12); ++v) {
    const CellId c = vars.cell(v);
    const double x0 = pl[c].x;
    pl[c].x = x0 + h;
    const double fp = model.value(pl, vars);
    pl[c].x = x0 - h;
    const double fm = model.value(pl, vars);
    pl[c].x = x0;
    EXPECT_NEAR(gx[v], (fp - fm) / (2 * h), 1e-4)
        << "cell " << nl.cell(c).name;
  }
}

}  // namespace
}  // namespace dp::gp
