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
/// exponents, so it stays finite for any coordinates. The extreme pins'
/// weights are exactly 1 and are set without calling exp() (see
/// exp_calls()).
///
/// The hot loop runs over a netlist::FlatNets layout built once in the
/// constructor (nets with < 2 pins dropped), split into the fixed
/// wirelength_chunks(). Each net is evaluated on both axes at once, one
/// axis per lane of a util::Lanes pair, so that every division of the
/// x axis shares one instruction with its y twin; on a 2-pin net the four
/// per-pin weight divisions of an axis are two. value() evaluates the
/// chunks and keeps every pin's gradient in its own slot, ordered by the
/// variable of the netlist's VarMap that owns the pin; gradient() sums
/// each variable's contiguous slots. With a thread pool attached the
/// chunks evaluate concurrently; the gather sums each variable's slots
/// in fixed pin order, so the result is bitwise identical for every
/// thread count.
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

  /// The smoothed wirelength; keeps the per-pin gradients.
  double value(const netlist::Placement& pl,
               const VarMap& vars) const override;

  /// Gathers the kept per-pin gradients into the variables.
  void gradient(std::span<double> gx, std::span<double> gy,
                double scale) const override;

  /// Deterministic work counter: exp() calls per value(), fixed by the
  /// net degrees: per axis 1 on a 2-pin net and 2d - 3 on a net of d >= 3
  /// pins (an axis whose pins all coincide makes one call more).
  std::uint64_t exp_calls() const { return exp_calls_; }

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
  std::uint64_t exp_calls_ = 0;

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
