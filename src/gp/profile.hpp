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
/// evaluation -- one per point the Nesterov solver evaluates -- counts one
/// call, value and gradient, of wirelength, density and each extra term
/// weighted non-zero. `line_search` reads 0: the solver has no line search,
/// and the entry stays only because `flowbench` reports it as
/// `gp.line_search_evals`. `density_bins` is a work counter, bitwise
/// reproducible for any thread count: the bins covered by the density
/// windows, summed over the evaluations. The per-evaluation bell count
/// is a constant of a run (DensityPenalty::bells_evaluated()), so its
/// total is that times the calls.
struct EvalProfile {
  TermProfile wirelength;
  TermProfile density;
  /// Always 0 (no line search); kept only for `flowbench`.
  TermProfile line_search;
  std::uint64_t density_bins = 0;
  /// Extra objective terms by name, in registration order (e.g.
  /// "alignment" in the structure-aware flow). GlobalPlacer::place()
  /// creates a run's entries before it takes their addresses.
  std::vector<std::pair<std::string, TermProfile>> extras;

  /// The entry for `name`, created on first use.
  TermProfile& extra(const std::string& name);

  /// Compact one-line rendering for logs and the CLI, e.g.
  ///   "wl 812x/0.410s | density 812x/0.770s | alignment 406x/0.080s |
  ///    density-bins 75490304"
  std::string to_string() const;
};

}  // namespace dp::gp
