#pragma once

#include <cstddef>
#include <string>

namespace dp::detail {

/// Cumulative cost and yield of one detailed-placement pass kind.
struct PassProfile {
  std::size_t passes = 0;      ///< times the pass ran
  std::size_t candidates = 0;  ///< candidate moves scored
  std::size_t accepted = 0;    ///< candidates committed
  double seconds = 0.0;        ///< wall time inside the pass
};

/// Per-pass evaluation profile of a detailed-placement run, the detail
/// phase's counterpart to gp::EvalProfile: how many candidate moves each
/// pass kind evaluated, how many it committed, and what it cost in wall
/// time.
struct Profile {
  PassProfile slide;       ///< per-cell optimal-interval slides
  PassProfile swap;        ///< adjacent-pair swaps
  /// Always zero (no whole-slice moves); kept only for `flowbench`, the
  /// end-to-end benchmark, which still reads it.
  PassProfile unit_slide;

  /// Nets scored: one per (candidate move, net of a moved cell) pair,
  /// each rescanned with eval::net_hpwl without and with the move.
  std::size_t rescans = 0;
  /// HPWL-improving moves rejected by DetailOptions::move_guard (e.g. the
  /// timing-driven WNS-proxy guard).
  std::size_t guard_vetoes = 0;

  /// Compact one-line rendering for logs and the CLI, e.g.
  ///   "slide 3x 412/1204 cand 0.002s | swap 3x 98/1188 cand 0.001s |
  ///    rescans 7301"
  std::string to_string() const;
};

}  // namespace dp::detail
