#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "gp/global_placer.hpp"
#include "gp/wirelength.hpp"
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
// A copy of the SmoothWirelength kernel before extreme pins' weights
// skipped exp(): every weight of every pin is an exp() call. The
// optimized kernel must reproduce its value and gradient bit for bit.
namespace reference {

using netlist::PinId;

constexpr std::size_t kMinPinsPerChunk = 2048;
constexpr std::size_t kMaxChunks = 64;

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
  if (grad != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const double ghi = wmax[i] / smax * (1.0 + (coord[i] - hi) / gamma);
      const double glo = wmin[i] / smin * (1.0 - (coord[i] - lo) / gamma);
      grad[i] = weight * (ghi - glo);
    }
  }
  return hi - lo;
}

class SmoothWirelength {
 public:
  SmoothWirelength(const netlist::Netlist& nl, double gamma);
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

SmoothWirelength::SmoothWirelength(const netlist::Netlist& nl, double gamma)
    : nl_(&nl), gamma_(gamma) {
  std::size_t kept_pins = 0, kept_nets = 0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const std::size_t deg = nl.net(n).pins.size();
    if (deg < 2) continue;
    ++kept_nets;
    kept_pins += deg;
    max_degree_ = std::max(max_degree_, deg);
  }
  net_first_.push_back(0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& pins = nl.net(n).pins;
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
        for (std::size_t i = 0; i < deg; ++i) {
          wmax[i] = std::exp((coord[i] - max_c) / gamma);
          wmin[i] = std::exp((min_c - coord[i]) / gamma);
        }
        double* grad = nullptr;
        if (with_grad) {
          grad = (axis == 0 ? gpin_x_.data() : gpin_y_.data()) + base;
        }
        net_value += wa_axis(coord, deg, wmax, wmin, gamma, weight, grad);
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
  ASSERT_GT(nl.pin_position(nl.net(2).pins[0], pl).x,
            nl.pin_position(nl.net(2).pins[1], pl).x);
  for (const double gamma : {0.5, 1.0, 7.0}) {
    expect_wl_bitwise(nl, pl, gamma);
  }
  // Everything piled on one point: every net coincides on both axes.
  Placement piled(nl.num_cells(), geom::Point{1.5, 1.5});
  expect_wl_bitwise(nl, piled, 1.0);
}

TEST(WirelengthBitwise, ExpCallsFollowNetDegrees) {
  HandNets h;
  // Per axis: 1 call on each 2-pin net, 2 * 5 - 2 on the 5-pin net.
  const SmoothWirelength wl(*h.nl, WirelengthModel::kWa, 1.0);
  EXPECT_EQ(wl.exp_calls(), 2u * (1 + 8 + 1));
}

TEST(Hpwl, TwoPinNetExact) {
  TwoCellFixture f;
  Placement pl(2);
  pl[f.a] = {0.0, 0.0};
  pl[f.b] = {3.0, 4.0};
  // Pin offsets shift the exact value; compute from pin positions.
  const auto& nl = *f.nl;
  geom::Rect box;
  for (auto p : nl.net(0).pins) box.expand(nl.pin_position(p, pl));
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
