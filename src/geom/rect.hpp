#pragma once

#include <algorithm>
#include <limits>

#include "geom/point.hpp"

namespace dp::geom {

/// Axis-aligned rectangle, closed on the lower-left edge. An "empty" Rect
/// (default-constructed) acts as the identity for expand()/bounding boxes.
struct Rect {
  double lx = std::numeric_limits<double>::infinity();
  double ly = std::numeric_limits<double>::infinity();
  double hx = -std::numeric_limits<double>::infinity();
  double hy = -std::numeric_limits<double>::infinity();

  Rect() = default;
  Rect(double lx_, double ly_, double hx_, double hy_)
      : lx(lx_), ly(ly_), hx(hx_), hy(hy_) {}

  static Rect from_center(const Point& center, double width, double height) {
    return {center.x - width / 2.0, center.y - height / 2.0,
            center.x + width / 2.0, center.y + height / 2.0};
  }

  bool empty() const { return lx > hx || ly > hy; }
  double width() const { return empty() ? 0.0 : hx - lx; }
  double height() const { return empty() ? 0.0 : hy - ly; }
  double area() const { return width() * height(); }
  Point center() const { return {(lx + hx) / 2.0, (ly + hy) / 2.0}; }

  /// Half-perimeter; the per-net HPWL contribution.
  double half_perimeter() const { return width() + height(); }

  void expand(const Point& p) {
    lx = std::min(lx, p.x);
    ly = std::min(ly, p.y);
    hx = std::max(hx, p.x);
    hy = std::max(hy, p.y);
  }

  void expand(const Rect& r) {
    if (r.empty()) return;
    lx = std::min(lx, r.lx);
    ly = std::min(ly, r.ly);
    hx = std::max(hx, r.hx);
    hy = std::max(hy, r.hy);
  }

  /// Area of the intersection with `o`; 0 when disjoint.
  double overlap_area(const Rect& o) const {
    const double w = std::min(hx, o.hx) - std::max(lx, o.lx);
    const double h = std::min(hy, o.hy) - std::max(ly, o.ly);
    return (w > 0.0 && h > 0.0) ? w * h : 0.0;
  }

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.lx == b.lx && a.ly == b.ly && a.hx == b.hx && a.hy == b.hy;
  }
};

}  // namespace dp::geom
