#ifndef LCAKNAP_UTIL_RATIONAL_H
#define LCAKNAP_UTIL_RATIONAL_H

#include <compare>
#include <cstdint>

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

}  // namespace lcaknap::util

#endif  // LCAKNAP_UTIL_RATIONAL_H
