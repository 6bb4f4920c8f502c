#include "dyn/delta.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "iky/construct.h"

namespace lcaknap::dyn {

DeltaPlan plan_delta(const knapsack::Instance& base, const UpdateBatch& batch) {
  for (const auto& m : batch.mutations) {
    switch (m.kind) {
      case MutationKind::kInsert:
        return {false, "insert changes n and the profit vector"};
      case MutationKind::kDelete:
        return {false, "delete tombstones a profit"};
      case MutationKind::kProfitUpdate:
        if (m.index >= base.size()) {
          return {false, "profit update index out of range"};
        }
        if (base.item(m.index).profit != m.profit) {
          return {false, "profit update re-weights the sampling distribution"};
        }
        break;  // writes the value already present: a no-op for sampling
      case MutationKind::kWeightUpdate:
        if (m.index >= base.size()) {
          return {false, "weight update index out of range"};
        }
        break;  // sampling is profit-proportional; weights never matter
    }
  }
  return {true, batch.mutations.empty() ? "empty-batch" : "weight-only"};
}

core::LcaKpRun replay_delta(const core::LcaKp& lca,
                            const core::WarmupTrace& trace) {
  const auto& access = lca.access();
  const double eps = lca.config().eps;
  const double eps2 = eps * eps;

  // Step-1 replay: the traced large set, re-read through the new instance.
  // Mass accumulates in sorted index order, matching run_warmup's
  // extract_large, so the double sum is bit-identical.
  std::vector<iky::NormLargeItem> large;
  large.reserve(trace.large_drawn.size());
  double large_mass = 0.0;
  for (const auto index : trace.large_drawn) {
    const knapsack::Item item = access.query(index);
    const double p = access.norm_profit(item);
    if (!(p > eps2)) {
      throw std::runtime_error(
          "replay_delta: traced-large index " + std::to_string(index) +
          " no longer classifies large (profit vector changed?)");
    }
    iky::NormLargeItem rec;
    rec.index = index;
    rec.profit = p;
    rec.weight = access.norm_weight(item);
    rec.efficiency = access.efficiency(item);
    large.push_back(rec);
    large_mass += p;
  }

  // Step-2 replay: the gate must resolve as it did at trace time (it is a
  // pure function of large_mass, which only depends on profits).
  const bool sweep = 1.0 - large_mass >= eps;
  if (sweep != trace.quantile_swept) {
    throw std::runtime_error(
        "replay_delta: small-mass gate flipped across the epoch");
  }
  // The trace already aggregates draws per index: add each index's count to
  // the grid cell of its new efficiency.  Never expanding back into
  // per-observation entries keeps the replay O(distinct traced indices +
  // domain), not O(samples) — the whole point of the delta path.
  std::vector<std::size_t> cells;
  if (sweep) {
    cells.assign(static_cast<std::size_t>(lca.domain().size()), 0);
    for (const auto& [index, count] : trace.quantile_draws) {
      const knapsack::Item item = access.query(index);
      if (access.norm_profit(item) > eps2) {
        throw std::runtime_error(
            "replay_delta: traced-small index " + std::to_string(index) +
            " no longer passes the line-7 filter");
      }
      cells[static_cast<std::size_t>(lca.domain().to_grid(access.efficiency(item)))] +=
          static_cast<std::size_t>(count);
    }
  }
  return lca.complete_run_from_sweeps(large, large_mass, std::move(cells));
}

}  // namespace lcaknap::dyn
