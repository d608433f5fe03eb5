#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/exp.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dp::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowNeverReachesBound) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(3);
  std::vector<bool> seen(8, false);
  for (int i = 0; i < 400; ++i) seen[rng.index(8)] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Stats, VarianceBasic) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
}

TEST(Stats, VarianceOfConstantIsZero) {
  const std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(Table, RendersHeaderAndRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(42), "42");
  EXPECT_EQ(Table::pct(0.5, 1), "50.0%");
}

/// util::exp in lane 0, with `other` in lane 1.
double lane_exp(double x, double other = 0.0) {
  return exp(Lanes{x, other})[0];
}

/// How many doubles lie between two non-negative doubles.
std::uint64_t ulps(double a, double b) {
  const auto ia = std::bit_cast<std::uint64_t>(a);
  const auto ib = std::bit_cast<std::uint64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

/// The largest ulp distance to std::exp over `n` pairs uniform in
/// [lo, hi], each pair evaluated in both lanes at once.
std::uint64_t max_ulps(double lo, double hi, std::size_t n, Rng& rng) {
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Lanes x = {rng.uniform(lo, hi), rng.uniform(lo, hi)};
    const Lanes e = exp(x);
    worst = std::max({worst, ulps(e[0], std::exp(x[0])),
                      ulps(e[1], std::exp(x[1]))});
  }
  return worst;
}

TEST(Exp, TableHoldsTwoToTheJOver128) {
  // Entry j's scale is the double nearest 2^(j/128), and scale * (1 +
  // tail) is 2^(j/128) far beyond double precision; checked in x87
  // extended precision, which has 11 bits more.
  if (std::numeric_limits<long double>::digits < 64) GTEST_SKIP();
  for (std::uint64_t j = 0; j < 128; ++j) {
    const long double exact = std::exp2l(static_cast<long double>(j) / 128);
    const auto scale =
        std::bit_cast<double>(exp_detail::kTable[2 * j + 1] + (j << 45));
    const auto tail = std::bit_cast<double>(exp_detail::kTable[2 * j]);
    EXPECT_EQ(scale, static_cast<double>(exact)) << j;
    EXPECT_LE(std::abs(scale * (1.0L + tail) - exact) / exact, 0x1p-60L)
        << j;
  }
}

TEST(Exp, WithinOneUlpOfLibm) {
  Rng rng(5);
  // The normal range, and the small arguments where most WA weights lie.
  EXPECT_LE(max_ulps(-708.39, 0.0, 500000, rng), 1u);
  EXPECT_LE(max_ulps(-20.0, 0.0, 500000, rng), 1u);
  EXPECT_LE(max_ulps(-1e-3, 0.0, 100000, rng), 1u);
  // Magnitudes from 2^-60 to 2^9, uniform in the exponent.
  std::uint64_t worst = 0;
  for (int i = 0; i < 200000; ++i) {
    const double x = -std::exp2(rng.uniform(-60.0, 9.47));
    worst = std::max(worst, ulps(lane_exp(x), std::exp(x)));
  }
  EXPECT_LE(worst, 1u);
}

TEST(Exp, SubnormalResultsDownToUnderflow) {
  Rng rng(6);
  // Subnormal results, down to the smallest one, are within 1 of the
  // 2^-1074 steps std::exp takes.
  EXPECT_LE(max_ulps(-745.13, -708.39, 500000, rng), 1u);
  EXPECT_EQ(lane_exp(-745.13), std::numeric_limits<double>::denorm_min());
  EXPECT_GT(lane_exp(-708.5), 0.0);
  EXPECT_LT(lane_exp(-708.5), std::numeric_limits<double>::min());
}

TEST(Exp, ZeroBelowUnderflowAndOneAtZero) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double x : {-745.2, -746.0, -1100.0, -5000.0, -1e300,
                         -std::numeric_limits<double>::max(), -kInf}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lane_exp(x)), 0u) << x;
  }
  EXPECT_EQ(lane_exp(0.0), 1.0);
  EXPECT_EQ(lane_exp(-0.0), 1.0);
  EXPECT_EQ(exp(Lanes{-0.0, 0.0})[1], 1.0);
}

TEST(Exp, NoNanForAnyNonPositiveArgument) {
  // Random bit patterns with the sign bit set: every exponent, NaNs
  // excepted, in both lanes.
  Rng rng(7);
  const auto pattern = [&rng] {
    return std::bit_cast<double>(rng() | (std::uint64_t{1} << 63));
  };
  std::size_t bad = 0;
  for (int i = 0; i < 200000; ++i) {
    const double a = pattern(), b = pattern();
    if (std::isnan(a) || std::isnan(b)) continue;
    const Lanes e = exp(Lanes{a, b});
    bad += !(e[0] >= 0.0 && e[0] <= 1.0 && e[1] >= 0.0 && e[1] <= 1.0);
    bad += ulps(e[0], std::exp(a)) > 1 || ulps(e[1], std::exp(b)) > 1;
  }
  EXPECT_EQ(bad, 0u);
  for (const double x : {-std::numeric_limits<double>::denorm_min(),
                         -std::numeric_limits<double>::min(), -0x1p-54,
                         -0x1p-53, -512.0, -708.3964185322641}) {
    EXPECT_FALSE(std::isnan(lane_exp(x))) << x;
    EXPECT_LE(ulps(lane_exp(x), std::exp(x)), 1u) << x;
  }
}

TEST(Exp, LanesAreIndependent) {
  // Each lane's bits are its own, whichever path the other lane takes.
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-800.0, 0.0);
    const double alone = lane_exp(x, x);
    for (const double other : {0.0, -3.0, -600.0, -744.0, -1e9}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(lane_exp(x, other)),
                std::bit_cast<std::uint64_t>(alone));
    }
  }
}

}  // namespace
}  // namespace dp::util
