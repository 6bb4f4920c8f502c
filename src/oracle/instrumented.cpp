#include "oracle/instrumented.h"

namespace lcaknap::oracle {

InstrumentedAccess::InstrumentedAccess(const InstanceAccess& inner,
                                       metrics::Registry& registry)
    : inner_(&inner),
      queries_total_(&registry.counter(
          "oracle_queries_total",
          "Per-index oracle queries (Definition 2.2 query access)")),
      samples_total_(&registry.counter(
          "oracle_samples_total",
          "Profit-weighted sampling draws ([IKY12] sampling access)")) {}

knapsack::Item InstrumentedAccess::do_query(std::size_t i) const {
  queries_total_->inc();
  return inner_->query(i);
}

WeightedDraw InstrumentedAccess::do_sample(util::Xoshiro256& rng) const {
  samples_total_->inc();
  return inner_->weighted_sample(rng);
}

}  // namespace lcaknap::oracle
