#include <gtest/gtest.h>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "util/prng.hpp"

namespace dp::geom {
namespace {

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point{4.0, 1.0}));
  EXPECT_EQ(b - a, (Point{2.0, -3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
}

TEST(Rect, DefaultIsEmpty) {
  const Rect r;
  EXPECT_TRUE(r.empty());
  EXPECT_DOUBLE_EQ(r.area(), 0.0);
  EXPECT_DOUBLE_EQ(r.half_perimeter(), 0.0);
}

TEST(Rect, ExpandByPoints) {
  Rect r;
  r.expand(Point{1, 2});
  EXPECT_FALSE(r.empty());
  EXPECT_DOUBLE_EQ(r.area(), 0.0);
  r.expand(Point{4, 6});
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.half_perimeter(), 7.0);
}

TEST(Rect, ExpandByEmptyRectIsNoop) {
  Rect r{0, 0, 2, 2};
  r.expand(Rect{});
  EXPECT_DOUBLE_EQ(r.area(), 4.0);
}

TEST(Rect, FromCenter) {
  const Rect r = Rect::from_center({5, 5}, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(r.lx, 4.0);
  EXPECT_DOUBLE_EQ(r.hy, 7.0);
  EXPECT_EQ(r.center(), (Point{5, 5}));
}

TEST(Rect, OverlapAreaDisjoint) {
  const Rect a{0, 0, 1, 1}, b{2, 2, 3, 3};
  EXPECT_DOUBLE_EQ(a.overlap_area(b), 0.0);
}

TEST(Rect, OverlapAreaPartial) {
  const Rect a{0, 0, 2, 2}, b{1, 1, 3, 3};
  EXPECT_DOUBLE_EQ(a.overlap_area(b), 1.0);
}

TEST(Rect, OverlapAreaTouchingIsZero) {
  const Rect a{0, 0, 1, 1}, b{1, 0, 2, 1};
  EXPECT_DOUBLE_EQ(a.overlap_area(b), 0.0);
}

TEST(RectProperty, OverlapIsSymmetricAndBounded) {
  util::Rng rng(2026);
  for (int i = 0; i < 200; ++i) {
    const Rect a{rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(5, 10),
                 rng.uniform(5, 10)};
    const Rect b{rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(5, 10),
                 rng.uniform(5, 10)};
    const double ab = a.overlap_area(b);
    EXPECT_DOUBLE_EQ(ab, b.overlap_area(a));
    EXPECT_LE(ab, std::min(a.area(), b.area()) + 1e-12);
    EXPECT_GE(ab, 0.0);
  }
}

TEST(RectProperty, ExpandContainsBothInputs) {
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    Rect a{rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(4, 8),
           rng.uniform(4, 8)};
    const Rect b{rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(4, 8),
                 rng.uniform(4, 8)};
    const Rect a0 = a;
    a.expand(b);
    EXPECT_LE(a.lx, std::min(a0.lx, b.lx));
    EXPECT_GE(a.hx, std::max(a0.hx, b.hx));
  }
}

}  // namespace
}  // namespace dp::geom
