#pragma once

namespace dp::geom {

/// 2-D point / vector in placement coordinates (database units are plain
/// doubles throughout; one site = `Design::site_width` units).
struct Point {
  double x = 0.0;
  double y = 0.0;

  Point() = default;
  Point(double x_, double y_) : x(x_), y(y_) {}

  Point& operator+=(const Point& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  Point& operator-=(const Point& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  Point& operator*=(double s) {
    x *= s;
    y *= s;
    return *this;
  }

  friend Point operator+(Point a, const Point& b) { return a += b; }
  friend Point operator-(Point a, const Point& b) { return a -= b; }
  friend Point operator*(Point a, double s) { return a *= s; }
  friend Point operator*(double s, Point a) { return a *= s; }
  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

}  // namespace dp::geom
