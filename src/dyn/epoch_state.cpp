#include "dyn/epoch_state.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace lcaknap::dyn {

namespace {

std::vector<double> advance_buckets() {
  // 10us .. ~80s: delta replays land in the low milliseconds, full re-warm-
  // ups of large instances in the seconds.
  return metrics::Histogram::exponential_buckets(10.0, 2.0, 23);
}

}  // namespace

EpochedState::EpochedState(knapsack::Instance base, const EpochConfig& config,
                           metrics::Registry& registry)
    : config_(config),
      advances_delta_(&registry.counter(
          "dyn_epoch_advances_total",
          "Epoch advances by warm-up path (delta replay vs full re-warm-up)",
          {{"path", "delta"}})),
      advances_rewarm_(&registry.counter(
          "dyn_epoch_advances_total",
          "Epoch advances by warm-up path (delta replay vs full re-warm-up)",
          {{"path", "rewarm"}})),
      mutations_insert_(&registry.counter("dyn_update_mutations_total",
                                          "Applied mutations by kind",
                                          {{"kind", "insert"}})),
      mutations_delete_(&registry.counter("dyn_update_mutations_total",
                                          "Applied mutations by kind",
                                          {{"kind", "delete"}})),
      mutations_profit_(&registry.counter("dyn_update_mutations_total",
                                          "Applied mutations by kind",
                                          {{"kind", "profit"}})),
      mutations_weight_(&registry.counter("dyn_update_mutations_total",
                                          "Applied mutations by kind",
                                          {{"kind", "weight"}})),
      epoch_gauge_(&registry.gauge("dyn_epoch",
                                   "Current epoch id of the evolving instance")),
      advance_us_(&registry.histogram("dyn_advance_us",
                                      "Wall time of one epoch advance",
                                      advance_buckets())) {
  auto epoch = std::make_shared<Epoch>();
  epoch->epoch_id = 0;
  epoch->instance =
      std::make_unique<const knapsack::Instance>(std::move(base));
  epoch->access =
      std::make_unique<const oracle::MaterializedAccess>(*epoch->instance);
  epoch->lca = std::make_unique<const core::LcaKp>(*epoch->access, config_.lca);
  epoch->run = std::make_shared<const core::LcaKpRun>(epoch->lca->run_warmup(
      config_.tape_seed, config_.warmup_threads, &trace_));
  epoch->digest = core::run_digest(*epoch->run);
  current_ = std::move(epoch);
  epoch_gauge_->set(0.0);
}

std::shared_ptr<const EpochedState::Epoch> EpochedState::current() const {
  std::lock_guard lock(mutex_);
  return current_;
}

std::uint64_t EpochedState::current_epoch_id() const {
  return current()->epoch_id;
}

AdvanceReport EpochedState::advance(const UpdateBatch& batch) {
  std::lock_guard advance_lock(advance_mutex_);
  const auto started = std::chrono::steady_clock::now();
  const std::shared_ptr<const Epoch> base = current();
  if (batch.epoch_id <= base->epoch_id) {
    throw std::invalid_argument(
        "EpochedState::advance: epoch id " + std::to_string(batch.epoch_id) +
        " not above current " + std::to_string(base->epoch_id));
  }

  const DeltaPlan plan = plan_delta(*base->instance, batch);
  auto next = std::make_shared<Epoch>();
  next->epoch_id = batch.epoch_id;
  next->instance = std::make_unique<const knapsack::Instance>(
      apply_batch(*base->instance, batch));
  // A delta-eligible batch keeps n and every profit, so the base epoch's
  // alias table is the one a rebuild would produce.
  next->access =
      plan.delta_eligible
          ? std::make_unique<const oracle::MaterializedAccess>(*next->instance,
                                                               *base->access)
          : std::make_unique<const oracle::MaterializedAccess>(*next->instance);
  next->lca = std::make_unique<const core::LcaKp>(*next->access, config_.lca);

  AdvanceReport report;
  report.epoch_id = batch.epoch_id;
  report.mutations = batch.mutations.size();
  report.reason = plan.reason;
  core::LcaKpRun run;
  if (plan.delta_eligible) {
    try {
      run = replay_delta(*next->lca, trace_);
      report.delta = true;
    } catch (const std::runtime_error& e) {
      // Defensive: the rule said sound but the replay disagreed.  Fall back
      // rather than serve unverified state; the reason travels upward.
      report.reason = std::string("delta-unsound: ") + e.what();
    }
    if (report.delta && config_.verify_digest) {
      // The check builds its own alias table: one shared with the base epoch
      // would draw what the replay assumes even if the profits had changed.
      const oracle::MaterializedAccess fresh_access(*next->instance);
      const core::LcaKpRun fresh = core::LcaKp(fresh_access, config_.lca)
                                       .run_warmup(config_.tape_seed,
                                                   config_.warmup_threads);
      if (core::run_digest(fresh) != core::run_digest(run)) {
        throw std::logic_error(
            "EpochedState::advance: delta replay digest mismatch at epoch " +
            std::to_string(batch.epoch_id) +
            " (soundness-rule bug — delta path is not equivalent)");
      }
    }
  }
  if (!report.delta) {
    // Full re-warm-up, re-traced: the new trace is the base for any chain
    // of delta advances that follows.
    run = next->lca->run_warmup(config_.tape_seed, config_.warmup_threads,
                                &trace_);
  }
  next->run = std::make_shared<const core::LcaKpRun>(std::move(run));
  next->digest = core::run_digest(*next->run);
  report.digest = next->digest;

  for (const auto& m : batch.mutations) {
    switch (m.kind) {
      case MutationKind::kInsert: mutations_insert_->inc(); break;
      case MutationKind::kDelete: mutations_delete_->inc(); break;
      case MutationKind::kProfitUpdate: mutations_profit_->inc(); break;
      case MutationKind::kWeightUpdate: mutations_weight_->inc(); break;
    }
  }
  (report.delta ? advances_delta_ : advances_rewarm_)->inc();
  epoch_gauge_->set(static_cast<double>(batch.epoch_id));
  {
    std::lock_guard lock(mutex_);
    current_ = std::move(next);
  }
  advance_us_->observe(
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - started)
          .count());
  return report;
}

}  // namespace lcaknap::dyn
