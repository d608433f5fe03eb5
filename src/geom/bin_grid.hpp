#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "geom/rect.hpp"

namespace dp::geom {

/// The side of a square bin grid over the core: `requested` if it is not
/// 0, else the smallest power of two at least sqrt(cells), clamped to
/// [16, cap].
inline std::size_t grid_side(std::size_t requested, std::size_t cells,
                             std::size_t cap) {
  if (requested != 0) return requested;
  const double root = std::sqrt(static_cast<double>(cells));
  std::size_t side = 1;
  while (static_cast<double>(side) < root) side <<= 1;
  return std::clamp<std::size_t>(side, 16, cap);
}

/// The bin `v` falls in on an axis of bins `w` wide from `lo`, unclamped.
inline long long bin_of(double v, double lo, double w) {
  return static_cast<long long>(std::floor((v - lo) / w));
}

/// bin_of() clamped to the axis's `n` bins.
inline std::size_t clamped_bin(double v, double lo, double w, std::size_t n) {
  return static_cast<std::size_t>(std::clamp<long long>(
      bin_of(v, lo, w), 0, static_cast<long long>(n) - 1));
}

/// The index of bin (column bx, row by) in a row-major grid nb bins wide.
inline std::size_t bin_index(long long bx, long long by, std::size_t nb) {
  return static_cast<std::size_t>(by) * nb + static_cast<std::size_t>(bx);
}

/// The bins [x0, x1] x [y0, y1] that `r` touches, clamped into an
/// nb x nb grid of bw x bh bins whose lower left corner is `core`'s. A
/// rectangle beyond the grid on an axis gets an empty span there.
struct BinSpan {
  long long x0, x1, y0, y1;
};

inline BinSpan bin_span(const Rect& r, const Rect& core, double bw, double bh,
                        std::size_t nb) {
  const auto last = static_cast<long long>(nb) - 1;
  return {std::max(0LL, bin_of(r.lx, core.lx, bw)),
          std::min(last, bin_of(r.hx, core.lx, bw)),
          std::max(0LL, bin_of(r.ly, core.ly, bh)),
          std::min(last, bin_of(r.hy, core.ly, bh))};
}

}  // namespace dp::geom
