#pragma once

#include <cstddef>
#include <string>

namespace dp::detail {

/// Cumulative cost and yield of one detailed-placement pass kind.
struct PassProfile {
  std::size_t passes = 0;      ///< times the pass ran
  std::size_t candidates = 0;  ///< candidate moves evaluated (delta trials)
  std::size_t accepted = 0;    ///< candidates committed
  double seconds = 0.0;        ///< wall time inside the pass

  void merge(const PassProfile& other) {
    passes += other.passes;
    candidates += other.candidates;
    accepted += other.accepted;
    seconds += other.seconds;
  }
};

/// Per-pass evaluation profile of a detailed-placement run, the detail
/// phase's counterpart to gp::EvalProfile: how many candidate moves each
/// pass kind evaluated, how many it committed, and what it cost in wall
/// time, plus the incremental-HPWL engine's bookkeeping counters so the
/// O(pins-touched) cost model is measured instead of assumed.
struct Profile {
  PassProfile slide;       ///< per-cell optimal-interval slides
  PassProfile swap;        ///< adjacent-pair swaps
  PassProfile unit_slide;  ///< whole-slice rigid slides

  /// Lazy full net rescans the incremental engine had to run because a
  /// cached extreme pin moved inward.
  std::size_t rescans = 0;
  /// Pass-boundary total resyncs (each O(nets), replacing what used to be
  /// a full O(pins) eval::hpwl recompute).
  std::size_t resyncs = 0;
  /// Paranoid-mode cross-checks run / failed (failures indicate a cache
  /// inconsistency and are also logged).
  std::size_t paranoid_checks = 0;
  std::size_t paranoid_failures = 0;
  /// HPWL-improving moves rejected by DetailOptions::move_guard (e.g. the
  /// timing-driven WNS-proxy guard).
  std::size_t guard_vetoes = 0;

  void merge(const Profile& other);

  /// Compact one-line rendering for logs and the CLI, e.g.
  ///   "slide 3x 412/1204 cand 0.002s | swap 3x 98/1188 cand 0.001s |
  ///    unit 3x 4/36 cand 0.000s | rescans 17 | resyncs 3"
  std::string to_string() const;
};

}  // namespace dp::detail
