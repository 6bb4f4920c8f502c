#ifndef LCAKNAP_UTIL_RATIONAL_H
#define LCAKNAP_UTIL_RATIONAL_H

#include <compare>
#include <cstdint>
#include <string>

/// \file rational.h
/// Exact comparison of efficiency ratios.
///
/// Item efficiencies are ratios p/w of integers.  Where an order between two
/// of them must not depend on floating-point rounding — the greedy solvers'
/// `knapsack::efficiency_order` — it is decided exactly by cross products
/// (`cmp_products`).  Algorithm 2's EPS thresholds and the reproducible
/// median do not compare ratios: they work on the `iky::EfficiencyDomain`
/// grid, a deterministic map of double efficiencies onto 2^bits cells that
/// every replica computes alike.
///
/// `cmp_products` always multiplies in `__int128`.  A widening 64x64->128
/// multiply is one native instruction on x86-64, and an overflow-checked
/// int64 fast path in front of it measured slower (E17, EXPERIMENTS.md).

namespace lcaknap::util {

/// Exact comparison of the products a1*a2 and b1*b2 where every factor fits
/// in 64 bits (so each product fits in 128 bits).  Decides p_a/w_a <=>
/// p_b/w_b as p_a*w_b <=> p_b*w_a without rounding.
[[nodiscard]] constexpr std::strong_ordering cmp_products(
    std::int64_t a1, std::int64_t a2, std::int64_t b1, std::int64_t b2) noexcept {
  const __int128 lhs = static_cast<__int128>(a1) * a2;
  const __int128 rhs = static_cast<__int128>(b1) * b2;
  if (lhs < rhs) return std::strong_ordering::less;
  if (lhs > rhs) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

/// A reduced fraction num/den with den > 0.  Immutable value type.
class Rational {
 public:
  /// Zero.
  constexpr Rational() noexcept : num_(0), den_(1) {}

  /// Constructs num/den, reducing to lowest terms and normalising the sign
  /// into the numerator.  `den` must be non-zero.
  Rational(std::int64_t num, std::int64_t den);

  [[nodiscard]] constexpr std::int64_t num() const noexcept { return num_; }
  [[nodiscard]] constexpr std::int64_t den() const noexcept { return den_; }

  /// Exact three-way comparison by cross products.
  [[nodiscard]] friend constexpr std::strong_ordering operator<=>(
      const Rational& a, const Rational& b) noexcept {
    return cmp_products(a.num_, b.den_, b.num_, a.den_);
  }
  [[nodiscard]] friend constexpr bool operator==(const Rational& a,
                                                 const Rational& b) noexcept {
    return (a <=> b) == std::strong_ordering::equal;
  }

  /// Exact product; throws std::overflow_error if the reduced result does not
  /// fit in 64 bits.
  [[nodiscard]] Rational operator*(const Rational& other) const;

  /// Exact sum; throws std::overflow_error on 64-bit overflow of the result.
  [[nodiscard]] Rational operator+(const Rational& other) const;

  [[nodiscard]] double to_double() const noexcept {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

  [[nodiscard]] std::string to_string() const;

  /// Best rational approximation of `x` with denominator at most `max_den`,
  /// via the Stern–Brocot tree.  Used to snap user-facing `double` parameters
  /// (like epsilon) onto the exact grid once, so that all replicas share the
  /// same exact value.
  [[nodiscard]] static Rational from_double(double x, std::int64_t max_den = 1'000'000);

 private:
  std::int64_t num_;
  std::int64_t den_;
};

}  // namespace lcaknap::util

#endif  // LCAKNAP_UTIL_RATIONAL_H
