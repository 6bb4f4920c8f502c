#include "knapsack/solvers/fptas.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "knapsack/solvers/dp.h"

namespace lcaknap::knapsack {

Solution fptas(const Instance& instance, double eps, std::size_t cell_limit) {
  if (!(eps > 0.0 && eps < 1.0)) {
    throw std::invalid_argument("fptas: eps must be in (0, 1)");
  }
  std::int64_t p_max = 0;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    p_max = std::max(p_max, instance.item(i).profit);
  }
  const double mu =
      eps * static_cast<double>(p_max) / static_cast<double>(instance.size());
  if (mu <= 1.0) {
    // Profits are already small: the exact DP is affordable as-is.
    return dp_by_profit(instance, cell_limit);
  }
  std::vector<Item> scaled;
  scaled.reserve(instance.size());
  bool any_positive = false;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Item& it = instance.item(i);
    Item s;
    s.profit = static_cast<std::int64_t>(
        std::floor(static_cast<double>(it.profit) / mu));
    s.weight = it.weight;
    any_positive = any_positive || s.profit > 0;
    scaled.push_back(s);
  }
  if (!any_positive) {
    // Degenerate: every profit rounded to zero (cannot happen when p_max
    // scales to n/eps >= 1, but keep the guard for tiny instances).
    return instance.make_solution({});
  }
  const Instance scaled_instance(std::move(scaled), instance.capacity());
  Solution scaled_solution = dp_by_profit(scaled_instance, cell_limit);
  // Same indices, original profits.
  return instance.make_solution(std::move(scaled_solution.items));
}

}  // namespace lcaknap::knapsack
