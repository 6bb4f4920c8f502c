#include "util/rational.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "util/rng.h"

namespace lcaknap::util {
namespace {

TEST(Rational, ReducesToLowestTerms) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
}

TEST(Rational, NormalizesSignIntoNumerator) {
  const Rational r(3, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 4);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, OrderingIsExact) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(2, 3), Rational(3, 5));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0, 1));
}

TEST(Rational, OrderingExactWhereDoublesFail) {
  // 10^17 / (10^17 + 1) vs (10^17 - 1) / 10^17: doubles see equality.
  const std::int64_t big = 100'000'000'000'000'000;
  const Rational a(big, big + 1);
  const Rational b(big - 1, big);
  EXPECT_EQ(a.to_double(), b.to_double());  // the double collision
  EXPECT_GT(a, b);                          // the exact truth
}

TEST(Rational, MultiplicationIsExact) {
  const Rational product = Rational(2, 3) * Rational(9, 4);
  EXPECT_EQ(product, Rational(3, 2));
}

TEST(Rational, AdditionIsExact) {
  const Rational sum = Rational(1, 6) + Rational(1, 3);
  EXPECT_EQ(sum, Rational(1, 2));
}

TEST(Rational, OverflowIsDetected) {
  const std::int64_t big = 3'000'000'000'000'000'000;
  EXPECT_THROW(Rational(big, 1) * Rational(big, 1), std::overflow_error);
}

TEST(Rational, FromDoubleRecoverSimpleFractions) {
  EXPECT_EQ(Rational::from_double(0.5), Rational(1, 2));
  EXPECT_EQ(Rational::from_double(0.25), Rational(1, 4));
  EXPECT_EQ(Rational::from_double(2.0 / 3.0), Rational(2, 3));
  EXPECT_EQ(Rational::from_double(-0.2), Rational(-1, 5));
}

TEST(Rational, FromDoubleHandlesIntegers) {
  EXPECT_EQ(Rational::from_double(7.0), Rational(7, 1));
  EXPECT_EQ(Rational::from_double(0.0), Rational(0, 1));
}

TEST(Rational, FromDoubleApproximatesWithinDenominatorBound) {
  const double pi = 3.14159265358979;
  const Rational approx = Rational::from_double(pi, 1000);
  EXPECT_LE(approx.den(), 1000);
  EXPECT_NEAR(approx.to_double(), pi, 1e-5);
}

TEST(Rational, FromDoubleRejectsNonFinite) {
  EXPECT_THROW(Rational::from_double(1.0 / 0.0), std::invalid_argument);
}

TEST(CmpProducts, MatchesExactArithmetic) {
  EXPECT_EQ(cmp_products(3, 4, 2, 6), std::strong_ordering::equal);
  EXPECT_EQ(cmp_products(3, 5, 2, 6), std::strong_ordering::greater);
  EXPECT_EQ(cmp_products(1, 5, 2, 6), std::strong_ordering::less);
  // Near the 64-bit boundary where doubles round.
  const std::int64_t big = 4'000'000'000'000'000'000;
  EXPECT_EQ(cmp_products(big, 2, big, 2), std::strong_ordering::equal);
  EXPECT_EQ(cmp_products(big, 2, big - 1, 2), std::strong_ordering::greater);
}

TEST(CmpProducts, ExactWhereProductsExceed64Bits) {
  // Hand-picked operands whose products do not fit in int64.
  const std::int64_t big = 4'000'000'000'000'000'000;  // big*3 overflows int64
  constexpr auto kLess = std::strong_ordering::less;
  constexpr auto kEqual = std::strong_ordering::equal;
  constexpr auto kGreater = std::strong_ordering::greater;
  const struct {
    std::int64_t a1, a2, b1, b2;
    std::strong_ordering expected;
  } kCases[] = {
      {big, 3, big, 3, kEqual},           {big, 3, big - 1, 3, kGreater},
      {big - 1, 3, big, 3, kLess},        {-big, 3, big, 3, kLess},
      {big, 3, -big, 3, kGreater},        {-big, 3, -big, 3, kEqual},
      {-big, -3, big, 3, kEqual},         {big, 3, 2, 5, kGreater},
      {2, 5, big, 3, kLess},
      {INT64_MAX, INT64_MAX, INT64_MIN, INT64_MIN, kLess},  // (2^63-1)^2 < 2^126
      {INT64_MIN, 2, INT64_MAX, 2, kLess},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(cmp_products(c.a1, c.a2, c.b1, c.b2), c.expected)
        << c.a1 << "*" << c.a2 << " vs " << c.b1 << "*" << c.b2;
  }
}

TEST(Rational, ComparisonAgreesWithWideReferenceNearOverflow) {
  // Reduced fractions with huge components, whose cross products overflow
  // int64: the ordering must match 128-bit cross products.
  Xoshiro256 rng(56);
  for (int i = 0; i < 20'000; ++i) {
    const auto num1 = static_cast<std::int64_t>(rng()) | 1;
    const auto num2 = static_cast<std::int64_t>(rng()) | 1;
    const auto den1 = static_cast<std::int64_t>(rng.next_below(INT64_MAX)) | 1;
    const auto den2 = static_cast<std::int64_t>(rng.next_below(INT64_MAX)) | 1;
    const Rational a(num1, den1);
    const Rational b(num2, den2);
    const __int128 lhs = static_cast<__int128>(a.num()) * b.den();
    const __int128 rhs = static_cast<__int128>(b.num()) * a.den();
    ASSERT_EQ(a <=> b, lhs <=> rhs) << a.to_string() << " vs " << b.to_string();
  }
}

}  // namespace
}  // namespace lcaknap::util
