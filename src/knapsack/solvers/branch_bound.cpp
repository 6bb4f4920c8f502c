#include "knapsack/solvers/branch_bound.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "knapsack/solvers/greedy.h"

namespace lcaknap::knapsack {

namespace {

/// Explicit-stack DFS state: recursion would overflow the call stack on
/// large instances (depth = n), so the search walks a heap-allocated stack.
enum class Phase { kEnter, kAfterInclude, kAfterExclude };

struct Frame {
  std::size_t rank;
  std::int64_t value;
  std::int64_t remaining;
  Phase phase;
  bool included;  // whether this frame set taken[order[rank]]
};

}  // namespace

BranchBoundResult branch_bound(const Instance& instance, std::uint64_t node_budget) {
  const auto order = efficiency_order(instance);
  const std::size_t n = order.size();

  // Seed the incumbent with the 1/2-approximation so pruning bites early and
  // a truncated search is never worse than greedy.
  const GreedyResult greedy = greedy_half(instance);
  std::int64_t best_value = greedy.solution.value;
  std::vector<bool> best_taken(n, false);
  for (const auto i : greedy.solution.items) best_taken[i] = true;

  std::vector<bool> taken(n, false);
  std::uint64_t nodes = 0;
  bool truncated = false;

  // Fractional completion bound for the suffix starting at `rank`: the
  // items that fit in efficiency order, then a fraction of the first that
  // does not.  Prefix sums over `order` find that break item by binary
  // search instead of a rescan, so a node costs O(log n).
  std::vector<std::int64_t> weight_prefix(n + 1, 0);
  std::vector<std::int64_t> profit_prefix(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const Item& it = instance.item(order[r]);
    weight_prefix[r + 1] = weight_prefix[r] + it.weight;
    profit_prefix[r + 1] = profit_prefix[r] + it.profit;
  }
  const auto upper_bound = [&](std::size_t rank, std::int64_t remaining) {
    const std::int64_t base = weight_prefix[rank];
    // First prefix end past `remaining`; the item before it breaks the run.
    const auto past = std::upper_bound(
        weight_prefix.begin() + static_cast<std::ptrdiff_t>(rank) + 1,
        weight_prefix.end(), remaining,
        [base](std::int64_t room, std::int64_t prefix) {
          return room < prefix - base;
        });
    const auto fit_end =
        static_cast<std::size_t>(past - weight_prefix.begin()) - 1;
    double bound =
        static_cast<double>(profit_prefix[fit_end] - profit_prefix[rank]);
    const std::int64_t left = remaining - (weight_prefix[fit_end] - base);
    if (fit_end < n && left > 0) {
      const Item& it = instance.item(order[fit_end]);
      bound += static_cast<double>(it.profit) * static_cast<double>(left) /
               static_cast<double>(it.weight);
    }
    return bound;
  };

  std::vector<Frame> stack;
  stack.reserve(n + 1);
  stack.push_back({0, 0, instance.capacity(), Phase::kEnter, false});
  while (!stack.empty() && !truncated) {
    Frame& frame = stack.back();
    switch (frame.phase) {
      case Phase::kEnter: {
        if (++nodes > node_budget) {
          truncated = true;
          break;
        }
        if (frame.rank == n) {
          if (frame.value > best_value) {
            best_value = frame.value;
            best_taken = taken;
          }
          stack.pop_back();
          break;
        }
        // Prune: even the fractional completion cannot beat the incumbent.
        // (+0.5 guards against float round-off on exact ties: bounds are
        // sums of integers plus at most one fraction.)
        if (static_cast<double>(frame.value) +
                upper_bound(frame.rank, frame.remaining) <=
            static_cast<double>(best_value) + 0.5) {
          stack.pop_back();
          break;
        }
        const std::size_t idx = order[frame.rank];
        const Item& it = instance.item(idx);
        frame.phase = Phase::kAfterInclude;
        if (it.weight <= frame.remaining) {
          frame.included = true;
          taken[idx] = true;
          stack.push_back({frame.rank + 1, frame.value + it.profit,
                           frame.remaining - it.weight, Phase::kEnter, false});
        } else {
          frame.included = false;
        }
        break;
      }
      case Phase::kAfterInclude: {
        if (frame.included) taken[order[frame.rank]] = false;
        frame.phase = Phase::kAfterExclude;
        stack.push_back(
            {frame.rank + 1, frame.value, frame.remaining, Phase::kEnter, false});
        break;
      }
      case Phase::kAfterExclude: {
        stack.pop_back();
        break;
      }
    }
  }

  std::vector<std::size_t> selection;
  for (std::size_t i = 0; i < n; ++i) {
    if (best_taken[i]) selection.push_back(i);
  }
  BranchBoundResult result;
  result.solution = instance.make_solution(std::move(selection));
  result.proven_optimal = !truncated;
  result.nodes_visited = nodes;
  return result;
}

}  // namespace lcaknap::knapsack
