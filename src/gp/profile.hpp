#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dp::gp {

/// Cumulative call count and wall time of one objective term.
struct TermProfile {
  std::size_t calls = 0;
  double seconds = 0.0;

  void add(double s) {
    ++calls;
    seconds += s;
  }
};

/// Per-term evaluation profile of a global-placement run: how often each
/// objective term was evaluated and how much wall time it consumed, so
/// kernel speedups are measured instead of guessed. Every CompositeObjective
/// evaluation -- the first one of a CG run or a line-search probe -- counts
/// one call of wirelength, density and each extra term weighted non-zero.
/// Every term's gradient is deferred: it runs for the first evaluation and
/// the accepted probes alone, and its time is added to the term's seconds
/// without a call. `line_search` counts the Armijo probes (a subset of the
/// evaluations; their value time is already in the per-term entries), and
/// `gradients` the objective gradients computed: one per CG run plus one
/// per accepted probe. `density_bins` is a work counter, bitwise
/// reproducible for any thread count: the bins covered by the density
/// windows, summed over the density value passes (each gradient pass
/// visits as many again). The per-evaluation bell and exp() counts are
/// constants of a run (DensityPenalty::bells_evaluated(),
/// SmoothWirelength::exp_calls()), so their totals are those times the
/// calls.
struct EvalProfile {
  TermProfile wirelength;
  TermProfile density;
  TermProfile line_search;
  std::size_t gradients = 0;
  std::uint64_t density_bins = 0;
  /// Extra objective terms by name, in registration order (e.g.
  /// "alignment" in the structure-aware flow). GlobalPlacer::place()
  /// creates a run's entries before it takes their addresses.
  std::vector<std::pair<std::string, TermProfile>> extras;

  /// The entry for `name`, created on first use.
  TermProfile& extra(const std::string& name);

  /// Compact one-line rendering for logs and the CLI, e.g.
  ///   "wl 812x/0.410s | density 812x/0.770s | alignment 406x/0.080s |
  ///    line-search 590x/0.900s | gradients 310x | density-bins 75490304"
  std::string to_string() const;
};

}  // namespace dp::gp
