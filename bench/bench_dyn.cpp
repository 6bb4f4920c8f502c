// E23 — dynamic instances: delta warm-up vs full re-warm across a churn x
// skew grid, plus a churn-under-load drill.
//
// Three parts:
//  1. churn x skew grid: for each (churn fraction, weight skew), apply a
//     weight-only batch (delta-eligible) and time EpochedState::advance on
//     the delta path vs a full run_warmup of the mutated instance, once on
//     1 thread and once on all hardware threads.  Each cell repeats all
//     three over 5 fresh states (advance mutates its state) and prints the
//     medians with their min-max.  Every repeat's delta digest is checked
//     byte-equal to both fresh warm-up digests, which sample through an
//     alias table of their own — a mismatch is a soundness bug and exits 2.
//     The headline claim — delta >= 5x faster than re-warm at <= 1% churn
//     — is read from the medians against the 1-thread re-warm, because the
//     delta replay runs on one thread: the all-threads speedup beside it
//     moves with the cores the host grants the process.  Each row prints
//     CONFIRMED or REFUTED; a refuted claim is reported honestly, not
//     failed.
//  2. fallback rows: one batch per non-delta-eligible mutation kind (insert,
//     delete, profit change) timed through the re-warm path, so the cost of
//     falling back is on the record next to the delta rows.
//  3. churn-under-load drill: a ServeEngine serves a query stream while
//     epochs advance mid-stream; every ok answer is re-checked against the
//     ground truth of the epoch it attributes (`Response::epoch_id`).  Any
//     disagreement is a stale-epoch answer; the drill requires exactly zero
//     and exits 2 otherwise.
//
// Flags: --smoke shrinks every budget for CI; --json PATH writes a one-object
// JSON summary (default BENCH_dyn.json when --json has no value).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/lca_kp.h"
#include "dyn/epoch_state.h"
#include "dyn/update.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "util/rng.h"
#include "util/table.h"

#include "timing.h"

namespace {

using namespace lcaknap;

/// Median and range of one grid cell's repeated timings, in milliseconds.
struct Spread {
  double median;
  double min;
  double max;
};

Spread spread_of(const std::vector<double>& times) {
  const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
  return {bench::median(times), *lo, *hi};
}

std::string range(const Spread& spread, int precision) {
  return util::format_double(spread.min, precision) + "-" +
         util::format_double(spread.max, precision);
}

/// A weight-only batch touching `count` distinct indices.  `skew` < 1 keeps
/// the mutations inside the lightest-index prefix (hot items, if the family
/// sorts by anything); 1.0 spreads them uniformly.
dyn::UpdateBatch weight_batch(std::uint64_t epoch_id,
                              const knapsack::Instance& inst,
                              std::size_t count, double skew,
                              std::uint64_t seed) {
  dyn::UpdateBatch batch;
  batch.epoch_id = epoch_id;
  util::Xoshiro256 rng(seed);
  const auto range = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(inst.size()) * skew));
  std::vector<bool> used(inst.size(), false);
  while (batch.mutations.size() < count) {
    const std::size_t idx = rng.next_below(range);
    if (used[idx]) continue;
    used[idx] = true;
    // New weight in [1, capacity]: always a valid Instance, always a real
    // change to the sorted-by-weight prefix structure the LCA probes.
    const std::int64_t w = static_cast<std::int64_t>(rng.next_below(
                               static_cast<std::uint64_t>(inst.capacity()))) +
                           1;
    batch.mutations.push_back(dyn::Mutation{dyn::MutationKind::kWeightUpdate,
                                            idx, 0, w});
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                          : "BENCH_dyn.json";
    } else {
      std::cerr << "usage: bench_dyn [--smoke] [--json [PATH]]\n";
      return 2;
    }
  }

  std::cout << "E23: dynamic instances — delta warm-up vs full re-warm"
            << (smoke ? " [smoke]" : "") << "\n\n";

  const std::size_t n = smoke ? 5'000 : 40'000;
  const std::uint64_t tape_seed = 7;
  bool digests_ok = true;
  bool claim_confirmed = true;  // delta >= 5x at <= 1% churn

  // --- 1. churn x skew grid (delta-eligible weight-only batches). ----------
  struct GridRow {
    double churn;
    double skew;
    Spread delta;  // over kReps fresh states
    Spread rewarm;      // 1 thread, like the delta replay
    Spread rewarm_all;  // all hardware threads
    double speedup;      // of the medians, against `rewarm`: the claim
    double speedup_all;  // against `rewarm_all`
    bool digest_equal;
  };
  constexpr int kReps = 5;
  std::vector<GridRow> grid;
  {
    const double churns[] = {0.001, 0.01, 0.05};
    const double skews[] = {0.1, 1.0};
    const auto base =
        knapsack::make_family(knapsack::Family::kUncorrelated, n, 0xE23);
    dyn::EpochConfig config;
    config.lca.eps = 0.2;
    config.lca.seed = 0xE23;
    config.lca.quantile_samples = smoke ? 50'000 : 400'000;
    config.tape_seed = tape_seed;
    util::Table table({"churn", "skew", "delta ms", "delta min-max",
                       "rewarm 1t ms", "rewarm 1t min-max", "speedup 1t",
                       "rewarm all ms", "speedup all", "digest",
                       "claim (>=5x 1t @ <=1%)"});
    for (const double churn : churns) {
      for (const double skew : skews) {
        const auto count = std::max<std::size_t>(
            1, static_cast<std::size_t>(static_cast<double>(n) * churn));
        const auto batch = weight_batch(1, base, count, skew, 0xBEEF + count);
        std::vector<double> delta_times;
        std::vector<double> rewarm_times;
        std::vector<double> rewarm_all_times;
        bool digest_equal = true;
        for (int rep = 0; rep < kReps; ++rep) {
          // A fresh state per repeat: each advance is epoch 0 -> 1, so every
          // repeat of every cell measures the same transition, not a chained
          // drift.
          metrics::Registry registry;
          dyn::EpochedState state(base, config, registry);
          dyn::AdvanceReport report;
          delta_times.push_back(
              bench::time_ms([&] { report = state.advance(batch); }));
          if (!report.delta) {
            std::cerr << "FAIL: weight-only batch fell back to re-warm ("
                      << report.reason << ")\n";
            return 2;
          }
          // Fresh warm-ups of the mutated instance: the ground truth the
          // delta path must reproduce byte-for-byte, and the cost it must
          // beat.  They sample through an alias table of their own, not the
          // one epoch 1 shares with epoch 0, and build it untimed.  The
          // thread count changes no digest.
          const auto epoch1 = state.current();
          const oracle::MaterializedAccess fresh_access(*epoch1->instance);
          const core::LcaKp fresh_lca(fresh_access, config.lca);
          for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
            std::uint64_t fresh_digest = 0;
            (threads == 1 ? rewarm_times : rewarm_all_times)
                .push_back(bench::time_ms([&] {
                  fresh_digest =
                      core::run_digest(fresh_lca.run_warmup(tape_seed, threads));
                }));
            digest_equal = digest_equal && fresh_digest == report.digest;
          }
        }
        digests_ok = digests_ok && digest_equal;
        const Spread delta = spread_of(delta_times);
        const Spread rewarm = spread_of(rewarm_times);
        const Spread rewarm_all = spread_of(rewarm_all_times);
        const auto ratio = [&delta](const Spread& rewarm_spread) {
          return delta.median > 0 ? rewarm_spread.median / delta.median : 0.0;
        };
        const double speedup = ratio(rewarm);
        const double speedup_all = ratio(rewarm_all);
        const bool in_claim = churn <= 0.01;
        const bool row_ok = !in_claim || speedup >= 5.0;
        if (in_claim) claim_confirmed = claim_confirmed && row_ok;
        grid.push_back({churn, skew, delta, rewarm, rewarm_all, speedup,
                        speedup_all, digest_equal});
        table.row()
            .cell(churn, 3)
            .cell(skew, 1)
            .cell(delta.median, 3)
            .cell(range(delta, 3))
            .cell(rewarm.median, 2)
            .cell(range(rewarm, 2))
            .cell(speedup, 1)
            .cell(rewarm_all.median, 2)
            .cell(speedup_all, 1)
            .cell(digest_equal ? "equal" : "MISMATCH")
            .cell(in_claim ? (row_ok ? "CONFIRMED" : "REFUTED") : "-");
      }
    }
    table.print(std::cout, "delta vs full re-warm, n=" + std::to_string(n) +
                               ", median of " + std::to_string(kReps) +
                               " fresh states per cell");
    std::cout << "\n";
    if (!digests_ok) {
      std::cerr << "FAIL: delta warm-up digest != fresh warm-up digest "
                   "(soundness bug)\n";
      return 2;
    }
    if (!claim_confirmed) {
      std::cout << "claim REFUTED: delta speedup below 5x against the 1-thread "
                   "re-warm at <= 1% churn (reported honestly; not a "
                   "failure)\n\n";
    }
  }

  // --- 2. fallback rows: every non-delta mutation kind re-warms. -----------
  double fallback_ms = 0.0;
  {
    util::Table table({"mutation kind", "path", "advance ms", "reason"});
    struct Case {
      const char* name;
      dyn::Mutation mutation;
    };
    const Case cases[] = {
        {"insert", {dyn::MutationKind::kInsert, 0, 500, 300}},
        {"delete", {dyn::MutationKind::kDelete, 3, 0, 0}},
        {"profit", {dyn::MutationKind::kProfitUpdate, 5, 123'456, 0}},
    };
    for (const auto& c : cases) {
      auto inst =
          knapsack::make_family(knapsack::Family::kUncorrelated, n, 0xE23);
      dyn::EpochConfig config;
      config.lca.eps = 0.2;
      config.lca.seed = 0xE23;
      config.lca.quantile_samples = smoke ? 50'000 : 400'000;
      config.tape_seed = tape_seed;
      metrics::Registry registry;
      dyn::EpochedState state(std::move(inst), config, registry);
      dyn::UpdateBatch batch;
      batch.epoch_id = 1;
      batch.mutations.push_back(c.mutation);
      dyn::AdvanceReport report;
      const double ms = bench::time_ms([&] { report = state.advance(batch); });
      fallback_ms = std::max(fallback_ms, ms);
      if (report.delta) {
        std::cerr << "FAIL: " << c.name
                  << " batch took the delta path (soundness bug)\n";
        return 2;
      }
      table.row().cell(c.name).cell("rewarm").cell(ms, 2).cell(report.reason);
    }
    table.print(std::cout, "fallback path per mutation kind");
    std::cout << "\n";
  }

  // --- 3. churn-under-load drill: zero stale-epoch answers. ----------------
  std::uint64_t drill_requests = 0;
  std::uint64_t drill_stale = 0;
  std::map<std::uint64_t, std::uint64_t> drill_by_epoch;
  {
    const std::size_t drill_n = smoke ? 2'000 : 10'000;
    auto inst =
        knapsack::make_family(knapsack::Family::kUncorrelated, drill_n, 0xD11);
    dyn::EpochConfig config;
    config.lca.eps = 0.25;
    config.lca.seed = 0xD11;
    config.lca.quantile_samples = smoke ? 30'000 : 100'000;
    config.tape_seed = tape_seed;
    metrics::Registry registry;
    dyn::EpochedState state(std::move(inst), config, registry);
    // Keep every epoch alive so answers can be re-checked against the epoch
    // they attribute, long after newer epochs took over serving.
    std::map<std::uint64_t, std::shared_ptr<const dyn::EpochedState::Epoch>>
        epochs;
    epochs[0] = state.current();

    serve::EngineConfig engine_config;
    engine_config.workers = 4;
    engine_config.queue_capacity = smoke ? 8'192 : 65'536;
    engine_config.cache.capacity = 4'096;
    engine_config.warm_state = epochs[0]->run;
    engine_config.warmup_tape_seed = tape_seed;
    serve::ServeEngine engine(*epochs[0]->lca, engine_config, registry);

    struct Seen {
      std::uint64_t item;
      bool answer;
      std::uint64_t epoch_id;
    };
    std::mutex seen_mutex;
    std::vector<Seen> seen;
    util::Xoshiro256 rng(0xD11);
    const std::uint64_t total = smoke ? 6'000 : 60'000;
    const int advances = 4;
    const std::uint64_t per_segment = total / (advances + 1);
    std::uint64_t submitted = 0;
    std::vector<std::future<void>> pending;
    for (int seg = 0; seg <= advances; ++seg) {
      for (std::uint64_t q = 0; q < per_segment; ++q) {
        const std::size_t item = rng.next_below(drill_n);
        auto promise = std::make_shared<std::promise<void>>();
        pending.push_back(promise->get_future());
        engine.submit(item, [&, item, promise](const serve::Response& r) {
          if (r.outcome == serve::Outcome::kOk) {
            std::lock_guard<std::mutex> lock(seen_mutex);
            seen.push_back(Seen{item, r.answer, r.epoch_id});
          }
          promise->set_value();
        });
        ++submitted;
      }
      if (seg < advances) {
        // Advance mid-stream without waiting for in-flight requests: the
        // point of the drill is the mixed-epoch window.
        const auto batch = weight_batch(
            static_cast<std::uint64_t>(seg) + 1, *epochs[0]->instance,
            std::max<std::size_t>(1, drill_n / 100), 1.0, 0xD11 + seg);
        (void)state.advance(batch);
        const auto epoch = state.current();
        epochs[epoch->epoch_id] = epoch;
        engine.advance_epoch(epoch->epoch_id, *epoch->lca, epoch->run, epoch);
      }
    }
    for (auto& f : pending) f.get();
    engine.drain();
    drill_requests = submitted;

    // Ground truth per attributed epoch: a stale-epoch answer is one that
    // disagrees with the warm state of the epoch it claims served it.
    for (const auto& s : seen) {
      drill_by_epoch[s.epoch_id] += 1;
      const auto it = epochs.find(s.epoch_id);
      if (it == epochs.end()) {
        drill_stale += 1;  // attributed an epoch that never existed
        continue;
      }
      core::LcaKp::AnswerWitness witness;
      const bool truth = it->second->lca->answer_with_witness(
          *it->second->run, static_cast<std::size_t>(s.item), witness);
      if (truth != s.answer) drill_stale += 1;
    }

    util::Table table({"metric", "value"});
    table.row().cell("requests").cell(static_cast<long long>(drill_requests));
    table.row().cell("epoch advances").cell(static_cast<long long>(advances));
    std::string by_epoch;
    for (const auto& [epoch, count] : drill_by_epoch) {
      if (!by_epoch.empty()) by_epoch += ", ";
      by_epoch += "e" + std::to_string(epoch) + "=" + std::to_string(count);
    }
    table.row().cell("ok answers by served epoch").cell(by_epoch);
    table.row().cell("stale-epoch answers")
        .cell(static_cast<long long>(drill_stale));
    table.print(std::cout, "churn-under-load drill");
    std::cout << "\n";
    if (drill_stale != 0) {
      std::cerr << "FAIL: " << drill_stale
                << " answers disagree with their attributed epoch\n";
      return 2;
    }
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"dyn\",\n"
       << "  \"experiment\": \"E23\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"n\": " << n << ",\n"
       << "  \"reps\": " << kReps << ",\n"
       << "  \"grid\": [";
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& row = grid[i];
      os << (i > 0 ? "," : "") << "\n    {\"churn\": " << row.churn
         << ", \"skew\": " << row.skew
         << ", \"delta_ms\": " << row.delta.median
         << ", \"delta_min_ms\": " << row.delta.min
         << ", \"delta_max_ms\": " << row.delta.max
         << ", \"rewarm_ms\": " << row.rewarm.median
         << ", \"rewarm_min_ms\": " << row.rewarm.min
         << ", \"rewarm_max_ms\": " << row.rewarm.max
         << ", \"speedup\": " << row.speedup
         << ", \"rewarm_all_ms\": " << row.rewarm_all.median
         << ", \"rewarm_all_min_ms\": " << row.rewarm_all.min
         << ", \"rewarm_all_max_ms\": " << row.rewarm_all.max
         << ", \"speedup_all\": " << row.speedup_all << ", \"digest_equal\": "
         << (row.digest_equal ? "true" : "false") << "}";
    }
    os << "\n  ],\n"
       << "  \"digests_equal\": " << (digests_ok ? "true" : "false") << ",\n"
       << "  \"claim_5x_at_1pct_churn\": "
       << (claim_confirmed ? "true" : "false") << ",\n"
       << "  \"drill_requests\": " << drill_requests << ",\n"
       << "  \"drill_stale_epoch_answers\": " << drill_stale << ",\n"
       << "  \"pass\": true\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  return 0;
}
