#include "core/batch_eval.h"

#include "oracle/access.h"

namespace lcaknap::core {

void BatchScratch::resize(std::size_t n) {
  profits.resize(n);
  weights.resize(n);
  status.resize(n);
  large.resize(n);
  answers.resize(n);
  size = n;
}

void BatchEval::gather(std::span<const std::size_t> items,
                       BatchScratch& scratch) const {
  scratch.resize(items.size());
  const oracle::InstanceAccess& access = lca_->access();
  for (std::size_t l = 0; l < items.size(); ++l) {
    knapsack::Item item;
    try {
      item = access.query(items[l]);
      scratch.status[l] = LaneStatus::kOk;
    } catch (const oracle::OracleUnavailable&) {
      scratch.status[l] = LaneStatus::kUnavailable;
    } catch (...) {
      scratch.status[l] = LaneStatus::kError;
    }
    scratch.profits[l] = item.profit;
    scratch.weights[l] = item.weight;
  }
}

void BatchEval::classify(std::span<const std::size_t> items,
                         BatchScratch& scratch) const {
  for (std::size_t l = 0; l < items.size(); ++l) {
    if (scratch.status[l] != LaneStatus::kOk) {
      scratch.large[l] = 0;
      scratch.answers[l] = 0;
      continue;
    }
    const LcaKp::AnswerWitness witness = lca_->witness_from(
        *run_, items[l], knapsack::Item{scratch.profits[l], scratch.weights[l]});
    scratch.large[l] = witness.large ? 1 : 0;
    scratch.answers[l] = witness.answer ? 1 : 0;
  }
}

}  // namespace lcaknap::core
