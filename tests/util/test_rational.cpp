// cmp_products: hand-picked cases near and past 64 bits, and a randomized
// sweep against a 128-bit reference.

#include "util/rational.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/rng.h"

namespace lcaknap::util {
namespace {

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

TEST(CmpProductsProperty, MatchesInt128Reference) {
  Xoshiro256 rng(6);
  for (int trial = 0; trial < 20'000; ++trial) {
    const std::int64_t a1 = rng.next_in(-2'000'000'000LL, 2'000'000'000LL);
    const std::int64_t a2 = rng.next_in(-2'000'000'000LL, 2'000'000'000LL);
    const std::int64_t b1 = rng.next_in(-2'000'000'000LL, 2'000'000'000LL);
    const std::int64_t b2 = rng.next_in(-2'000'000'000LL, 2'000'000'000LL);
    const __int128 lhs = static_cast<__int128>(a1) * a2;
    const __int128 rhs = static_cast<__int128>(b1) * b2;
    const auto expected = lhs < rhs   ? std::strong_ordering::less
                          : lhs > rhs ? std::strong_ordering::greater
                                      : std::strong_ordering::equal;
    ASSERT_EQ(cmp_products(a1, a2, b1, b2), expected);
  }
}

}  // namespace
}  // namespace lcaknap::util
