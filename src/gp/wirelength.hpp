#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gp/vars.hpp"
#include "netlist/flat_nets.hpp"
#include "util/lanes.hpp"

namespace dp::util {
class ThreadPool;
}

namespace dp::gp {

/// Kept only for `flowbench`, the end-to-end benchmark, which still names
/// it. SmoothWirelength has one model, weighted-average.
enum class WirelengthModel {
  kWa,  ///< weighted-average (Hsu/Balabanov/Chang)
};

/// The chunk-parallel wirelength kernel's fixed chunks of `nets`: chunk k
/// is the kept nets [first[k], first[k + 1]), balanced by pin count,
/// util::num_chunks(pins, kMinPinsPerChunk) of them at most, each but the
/// last holding at least kMinPinsPerChunk pins. The bounds depend on the
/// netlist alone, never on the thread count, so a kernel that writes
/// per-chunk slots and reduces them in chunk order gets the same bits for
/// every pool size.
inline constexpr std::size_t kMinPinsPerChunk = 2048;
std::vector<std::uint32_t> wirelength_chunks(const netlist::FlatNets& nets);

/// Smooth wirelength objective term: the weighted-average (WA)
/// approximation of HPWL. The smoothing parameter gamma is annealed by
/// GlobalPlacer: large gamma = smooth/loose bound, small gamma = tight
/// approximation of HPWL.
///
/// The model is stabilized against overflow by max-shifting the
/// exponents, so it stays finite for any coordinates. Its exponentials
/// are util::exp, whose bits do not depend on the host's libm.
///
/// The hot loop runs over a netlist::FlatNets layout built once in the
/// constructor (nets with < 2 pins dropped), split into the fixed
/// wirelength_chunks(). Each net is evaluated on both axes at once, one
/// axis per lane of a util::Lanes pair, so that every operation of the
/// x axis, util::exp included, shares one instruction with its y twin;
/// 1 / gamma is taken once per evaluation and the reciprocals of a net's
/// weight sums once per net, so no division is left per pin. On an AVX2
/// host (util::widest_lanes()) one four-lane util::exp call takes all four
/// weights of a pin, and two consecutive 2-pin nets share one, in the same
/// per-lane arithmetic, so the bits do not depend on the host. An
/// evaluation runs the chunks, which write every pin's gradient to its
/// own slot, ordered by the variable of the netlist's VarMap that owns
/// the pin, and then gathers each variable's contiguous slots into it.
/// With a thread pool attached the chunks evaluate concurrently; the
/// gather sums each variable's slots in fixed pin order, so the result is
/// bitwise identical for every thread count.
class SmoothWirelength final : public ObjectiveTerm {
 public:
  /// `model` is ignored (see WirelengthModel).
  SmoothWirelength(const netlist::Netlist& nl, WirelengthModel model,
                   double gamma);

  void set_gamma(double gamma) { gamma_ = gamma; }

  /// Attach a worker pool for chunk-parallel evaluation; null (the
  /// default) evaluates the chunks serially, producing identical results.
  void set_thread_pool(std::shared_ptr<util::ThreadPool> pool) {
    pool_ = std::move(pool);
  }

  /// The smoothed wirelength; adds `scale` times its gradient into the
  /// variables of the netlist's VarMap.
  double eval(const netlist::Placement& pl, const VarMap& vars,
              std::span<double> gx, std::span<double> gy,
              double scale = 1.0) const override;

  /// eval() on `width`-lane exponentials; eval() takes
  /// util::widest_lanes(). Both widths give the same bits, which tests
  /// and benchmarks check through this entry. kFour needs an AVX2 host
  /// and falls back to kTwo in builds for other architectures.
  double evaluate(const netlist::Placement& pl, util::LaneWidth width,
                  std::span<double> gx, std::span<double> gy,
                  double scale = 1.0) const;

  /// Rescale the effective weight of every net: the kernel uses
  /// `netlist_weight(n) * scale[n]` (scale is indexed by NetId, so it
  /// covers dropped < 2-pin nets too). An empty span resets to the plain
  /// netlist weights. Timing-driven placement re-derives the scale from
  /// net criticality each outer iteration.
  void set_net_weight_scale(std::span<const double> scale);

  /// The flattened nets (>= 2 pins); `net_weight` holds the scaled
  /// weights.
  const netlist::FlatNets& nets() const { return flat_; }

 private:
  const netlist::Netlist* nl_;
  double gamma_;
  std::shared_ptr<util::ThreadPool> pool_;

  /// Nets with >= 2 pins; set_net_weight_scale() rewrites net_weight.
  netlist::FlatNets flat_;
  std::vector<std::uint32_t> chunk_first_;  ///< wirelength_chunks(flat_)
  std::size_t max_degree_ = 0;

  // Gradient slots (CSR): pin slot s writes its gradient to
  // gpin_[grad_pos_[s]]; variable v's pins, in pin-slot order, own
  // gpin_[var_first_[v] .. var_first_[v + 1]), and the pins of fixed
  // cells the slots after the last variable's.
  std::vector<std::uint32_t> var_first_, grad_pos_;

  // Persistent evaluation scratch (one evaluation in flight at a time;
  // chunk tasks touch disjoint slots).
  mutable std::vector<util::Lanes> gpin_;    ///< weighted per-pin {gx, gy}
  mutable std::vector<double> chunk_value_;  ///< per-chunk partial sums
  mutable std::vector<std::vector<util::Lanes>> chunk_scratch_;
};

}  // namespace dp::gp
