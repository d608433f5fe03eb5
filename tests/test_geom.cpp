#include <gtest/gtest.h>

#include "geom/bin_grid.hpp"
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

// A grid the caller does not size gets the smallest power of two at least
// sqrt(cells), at least 16 and at most the cap: 512 for the density
// penalty, 256 for the congestion map.
TEST(BinGrid, GridSide) {
  EXPECT_EQ(grid_side(0, 0, 512), 16u);
  EXPECT_EQ(grid_side(0, 256, 512), 16u);
  EXPECT_EQ(grid_side(0, 257, 512), 32u);
  EXPECT_EQ(grid_side(0, 4000, 512), 64u);
  EXPECT_EQ(grid_side(0, 65536, 256), 256u);
  EXPECT_EQ(grid_side(0, 65537, 256), 256u);
  EXPECT_EQ(grid_side(0, 65537, 512), 512u);
  EXPECT_EQ(grid_side(0, 1000000, 512), 512u);
  EXPECT_EQ(grid_side(0, 1000000, 256), 256u);
  // A requested side is taken as it is.
  EXPECT_EQ(grid_side(7, 1000000, 512), 7u);
  EXPECT_EQ(grid_side(1024, 0, 256), 1024u);
}

TEST(BinGrid, SpanClampsIntoTheGrid) {
  const Rect core{1.0, 2.0, 9.0, 10.0};  // 8 x 8 bins of 1 x 1
  const BinSpan inside = bin_span({2.5, 3.0, 4.0, 5.5}, core, 1.0, 1.0, 8);
  EXPECT_EQ(inside.x0, 1);
  EXPECT_EQ(inside.x1, 3);
  EXPECT_EQ(inside.y0, 1);
  EXPECT_EQ(inside.y1, 3);
  const BinSpan over = bin_span({-5.0, 9.5, 20.0, 30.0}, core, 1.0, 1.0, 8);
  EXPECT_EQ(over.x0, 0);
  EXPECT_EQ(over.x1, 7);
  EXPECT_EQ(over.y0, 7);
  EXPECT_EQ(over.y1, 7);
  const BinSpan left = bin_span({-5.0, 3.0, -1.0, 4.0}, core, 1.0, 1.0, 8);
  EXPECT_GT(left.x0, left.x1);
  // A point's bin clamps at both ends; bins are stored row by row.
  EXPECT_EQ(clamped_bin(-5.0, core.lx, 1.0, 8), 0u);
  EXPECT_EQ(clamped_bin(3.5, core.lx, 1.0, 8), 2u);
  EXPECT_EQ(clamped_bin(30.0, core.lx, 1.0, 8), 7u);
  EXPECT_EQ(bin_index(3, 2, 8), 19u);
}

}  // namespace
}  // namespace dp::geom
