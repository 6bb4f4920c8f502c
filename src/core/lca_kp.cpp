#include "core/lca_kp.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "iky/partition.h"
#include "iky/value_approx.h"
#include "reproducible/rquantile.h"
#include "util/flat_index_map.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace lcaknap::core {

namespace {

/// Cached normalization constants for the warm-up's sampling loops.  The
/// access object's `norm_profit`/`efficiency` helpers make a virtual call
/// per read of the (free) metadata; over millions of draws that dominates
/// the arithmetic.  This mirror performs *exactly* the same double
/// operations in the same order, so classifications agree bit-for-bit with
/// the per-query path (`decide` reads through the access object).
struct NormContext {
  double total_profit;
  double total_weight;

  explicit NormContext(const oracle::InstanceAccess& access)
      : total_profit(static_cast<double>(access.total_profit())),
        total_weight(static_cast<double>(access.total_weight())) {}

  [[nodiscard]] double norm_profit(const knapsack::Item& it) const noexcept {
    return static_cast<double>(it.profit) / total_profit;
  }
  [[nodiscard]] double norm_weight(const knapsack::Item& it) const noexcept {
    return static_cast<double>(it.weight) / total_weight;
  }
  [[nodiscard]] double efficiency(const knapsack::Item& it) const noexcept {
    if (it.weight == 0) return std::numeric_limits<double>::infinity();
    return norm_profit(it) / norm_weight(it);
  }
};

/// Sorted-extract of a dedup table into the `large` vector, accumulating the
/// large mass (the order `std::map` used to provide).
void extract_large(const util::FlatIndexMap<iky::NormLargeItem>& found,
                   std::vector<iky::NormLargeItem>& large, double& mass) {
  const auto entries = found.extract_sorted();
  large.reserve(entries.size());
  for (const auto& [index, rec] : entries) {
    large.push_back(rec);
    mass += rec.profit;
  }
}

/// Step 1's sweep (lines 1-3): `quota` draws from `rng`; each large item
/// drawn is recorded in `found` under its index.
void sweep_large(const oracle::InstanceAccess& access, const NormContext& norm,
                 double eps2, util::Xoshiro256& rng, std::size_t quota,
                 util::FlatIndexMap<iky::NormLargeItem>& found) {
  for (std::size_t i = 0; i < quota; ++i) {
    const auto draw = access.weighted_sample(rng);
    const double p = norm.norm_profit(draw.item);
    if (p <= eps2) continue;
    found.emplace(draw.index,
                  iky::NormLargeItem{draw.index, p, norm.norm_weight(draw.item),
                                     norm.efficiency(draw.item)});
  }
}

/// Step 2's sweep (lines 6-7): `quota` draws from `rng`; each small draw adds
/// one to the grid cell of its efficiency (`cells` has one count per cell of
/// `domain`) and, when `drawn` is given, appends its index there.
void sweep_quantile(const oracle::InstanceAccess& access, const NormContext& norm,
                    double eps2, const iky::EfficiencyDomain& domain,
                    util::Xoshiro256& rng, std::size_t quota,
                    std::vector<std::size_t>& cells,
                    std::vector<std::size_t>* drawn) {
  for (std::size_t i = 0; i < quota; ++i) {
    const auto draw = access.weighted_sample(rng);
    if (norm.norm_profit(draw.item) > eps2) continue;  // line 7
    ++cells[static_cast<std::size_t>(domain.to_grid(norm.efficiency(draw.item)))];
    if (drawn != nullptr) drawn->push_back(draw.index);
  }
}

/// Warm-up PRF streams: one fresh-randomness substream per (phase, shard).
enum WarmupStream : std::uint64_t {
  kLargeSweepStream = 0,
  kQuantileSweepStream = 1,
};

/// Number of draws shard `s` performs out of `total` (even split, remainder
/// spread over the leading shards — a pure function of (total, s)).
[[nodiscard]] std::size_t shard_quota(std::size_t total, std::size_t shard,
                                      std::size_t shards) noexcept {
  return total / shards + (shard < total % shards ? 1 : 0);
}

}  // namespace

LcaKpParams resolve_params(const LcaKpConfig& config) {
  if (!(config.eps > 0.0 && config.eps < 1.0)) {
    throw std::invalid_argument("LcaKp: eps must be in (0, 1)");
  }
  if (config.domain_bits < 4 || config.domain_bits > 48) {
    throw std::invalid_argument("LcaKp: domain_bits must be in [4, 48]");
  }
  const double eps = config.eps;
  LcaKpParams params;
  if (config.paper_constants) {
    // Algorithm 2, line 5.
    params.tau = eps * eps / 5.0;
    params.rho = eps * eps / 18.0;
  } else {
    // Calibrated: eps-scale instead of eps^2-scale, so the sampling budgets
    // below are affordable; the consistency benches measure what this buys.
    params.tau = eps / 2.0;
    params.rho = eps / 6.0;
  }
  if (config.tau > 0.0) params.tau = config.tau;
  if (config.rho > 0.0) params.rho = config.rho;
  params.beta = config.beta > 0.0 ? config.beta : params.rho / 2.0;

  params.large_samples = config.large_samples > 0
                             ? config.large_samples
                             : iky::coupon_collector_samples(eps * eps, 3);
  params.t_max = std::max(1, static_cast<int>(std::floor(1.0 / eps)));

  if (config.quantile_samples > 0) {
    params.quantile_samples = config.quantile_samples;
  } else {
    // The reproducible search probes `levels` rounds; per round, boundary
    // estimates near the target risk straddling a rounding-grid edge with
    // probability ~2*delta/spacing.  Size the sample so the per-quantile
    // disagreement budget rho is met, then cap (the uncapped theoretical
    // requirement — rmedian_sample_size — is reported by benches instead).
    reproducible::RMedianParams mp;
    mp.domain_size = (std::int64_t{1} << config.domain_bits) + 2;
    mp.tau = params.tau / 2.0;
    mp.rho = params.rho;
    mp.beta = params.beta;
    mp.branching = config.branching;
    const int levels = reproducible::rmedian_depth(mp);
    const double spacing = params.tau / 2.0;
    const double delta =
        spacing * params.rho / (4.0 * static_cast<double>(std::max(levels, 1)));
    const std::size_t want = util::dkw_sample_size(delta, params.beta);
    params.quantile_samples =
        std::clamp<std::size_t>(want, 4'096, config.max_quantile_samples);
  }
  return params;
}

LcaKp::LcaKp(const oracle::InstanceAccess& access, const LcaKpConfig& config)
    : access_(&access),
      config_(config),
      params_(resolve_params(config)),
      domain_(config.domain_bits),
      prf_(config.seed) {}

LcaKpRun LcaKp::run_pipeline(util::Xoshiro256& sample_rng) const {
  const double eps2 = config_.eps * config_.eps;
  const NormContext norm(*access_);

  // ---- Step 1 (lines 1-3): collect the large items. ----------------------
  util::FlatIndexMap<iky::NormLargeItem> found(64);
  sweep_large(*access_, norm, eps2, sample_rng, params_.large_samples, found);
  std::vector<iky::NormLargeItem> large;
  double large_mass = 0.0;
  extract_large(found, large, large_mass);

  // ---- Step 2 (lines 4-7): count the small draws per grid cell. ----------
  std::vector<std::size_t> cells;
  if (1.0 - large_mass >= config_.eps) {
    cells.assign(static_cast<std::size_t>(domain_.size()), 0);
    sweep_quantile(*access_, norm, eps2, domain_, sample_rng,
                   params_.quantile_samples, cells, nullptr);
  }
  return complete_run_from_sweeps(large, large_mass, std::move(cells));
}

LcaKpRun LcaKp::run_warmup(std::uint64_t tape_seed, std::size_t threads,
                           util::ThreadPool* pool, WarmupTrace* trace) const {
  const double eps2 = config_.eps * config_.eps;
  if (threads == 0) threads = config_.warmup_threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  constexpr std::size_t shards = kWarmupShards;
  // The fresh-randomness tape, made random-access: shard s of phase f draws
  // from the substream seeded by PRF(tape_seed)(f, s).  The layout depends
  // only on `tape_seed`, never on `threads` — that is the whole consistency
  // argument (Lemma 4.9 needs (L(Ĩ), EPS) to be a pure function of the
  // instance, the shared seed, and the warm-up's sample outcome; pinning the
  // sample outcome to the tape makes the thread count irrelevant).
  const util::Prf tape(util::mix64(tape_seed));
  const NormContext norm(*access_);

  // Runs shard bodies [0, shards) on the requested parallelism; results
  // land in per-shard slots, so shard functions never share mutable state.
  const auto for_each_shard = [&](const std::function<void(std::size_t)>& body) {
    if (threads <= 1) {
      for (std::size_t s = 0; s < shards; ++s) body(s);
    } else if (pool != nullptr) {
      pool->parallel_for(shards, body);
    } else {
      util::ThreadPool owned(threads);
      owned.parallel_for(shards, body);
    }
  };

  // ---- Step 1 (lines 1-3): sharded large-item sweep. ---------------------
  std::vector<util::FlatIndexMap<iky::NormLargeItem>> shard_found(
      shards, util::FlatIndexMap<iky::NormLargeItem>(16));
  for_each_shard([&](std::size_t s) {
    util::Xoshiro256 rng(tape.word(kLargeSweepStream, s));
    sweep_large(*access_, norm, eps2, rng,
                shard_quota(params_.large_samples, s, shards), shard_found[s]);
  });
  // Merge in shard order.  Duplicate keys across shards carry identical
  // records (the same item read through the same metadata), so first-wins
  // merging is order-insensitive in value — but the fixed order makes the
  // determinism argument syntactic rather than semantic.
  util::FlatIndexMap<iky::NormLargeItem> found(64);
  for (std::size_t s = 0; s < shards; ++s) {
    for (const auto& [index, rec] : shard_found[s].extract_sorted()) {
      found.emplace(index, rec);
    }
  }
  std::vector<iky::NormLargeItem> large;
  double large_mass = 0.0;
  extract_large(found, large, large_mass);
  if (trace != nullptr) {
    trace->tape_seed = tape_seed;
    trace->large_drawn.clear();
    trace->large_drawn.reserve(large.size());
    for (const auto& rec : large) trace->large_drawn.push_back(rec.index);
    trace->quantile_swept = false;
    trace->quantile_draws.clear();
  }

  // ---- Step 2 (lines 4-7): sharded count of the small draws per cell. ----
  std::vector<std::size_t> cells;
  if (1.0 - large_mass >= config_.eps) {
    std::vector<std::vector<std::size_t>> shard_cells(shards);
    std::vector<std::vector<std::size_t>> shard_drawn(trace != nullptr ? shards : 0);
    for_each_shard([&](std::size_t s) {
      // Zeroed by the thread that fills it, so first-touch page faults
      // spread over the pool instead of queueing before it starts.
      shard_cells[s].assign(static_cast<std::size_t>(domain_.size()), 0);
      util::Xoshiro256 rng(tape.word(kQuantileSweepStream, s));
      sweep_quantile(*access_, norm, eps2, domain_, rng,
                     shard_quota(params_.quantile_samples, s, shards),
                     shard_cells[s], trace != nullptr ? &shard_drawn[s] : nullptr);
    });
    if (trace != nullptr) {
      trace->quantile_swept = true;
      std::unordered_map<std::size_t, std::uint64_t> counts;
      for (const auto& idxs : shard_drawn) {
        for (const auto i : idxs) ++counts[i];
      }
      trace->quantile_draws.assign(counts.begin(), counts.end());
      std::sort(trace->quantile_draws.begin(), trace->quantile_draws.end());
    }
    cells = std::move(shard_cells[0]);
    for (std::size_t s = 1; s < shards; ++s) {  // sum in shard order
      for (std::size_t v = 0; v < cells.size(); ++v) cells[v] += shard_cells[s][v];
    }
  }
  return complete_run_from_sweeps(large, large_mass, std::move(cells));
}

LcaKpRun LcaKp::complete_run_from_sweeps(std::span<const iky::NormLargeItem> large,
                                         double large_mass,
                                         std::vector<std::size_t> cells) const {
  const double eps = config_.eps;
  const double eps2 = eps * eps;
  LcaKpRun run;
  run.large_mass = large_mass;
  // Counted from the budgets, never as a delta of the oracle's draw counter:
  // that counter is shared across concurrently executing replicas, so its
  // deltas would interleave.
  run.samples_used = params_.large_samples;

  // ---- Step 2 (lines 8-17): EPS via reproducible quantiles. --------------
  if (1.0 - large_mass >= eps) {
    if (cells.size() != static_cast<std::size_t>(domain_.size())) {
      throw std::invalid_argument(
          "LcaKp::complete_run_from_sweeps: need one count per grid cell");
    }
    run.q = (eps + eps2 / 2.0) / (1.0 - large_mass);
    run.t = static_cast<int>(std::floor(1.0 / run.q));
    run.samples_used += params_.quantile_samples;
    if (run.t >= 1) {
      const util::EmpiricalCdfInt ecdf(std::move(cells));
      if (ecdf.size() > 0) compute_thresholds(run, ecdf);
    }
  }

  finalize_run(run, large);
  return run;
}

void LcaKp::compute_thresholds(LcaKpRun& run,
                               const util::EmpiricalCdfInt& ecdf) const {
  reproducible::RQuantileParams rq;
  rq.domain_size = domain_.size();
  rq.tau = params_.tau;
  rq.rho = params_.rho;
  rq.beta = params_.beta;
  rq.branching = config_.branching;
  std::int64_t previous = domain_.size() - 1;
  for (int k = 1; k <= run.t; ++k) {
    const double p = std::clamp(1.0 - static_cast<double>(k) * run.q,
                                1e-6, 1.0 - 1e-6);
    std::int64_t threshold = 0;
    if (config_.reproducible_quantiles) {
      threshold = reproducible::rquantile(ecdf, p, rq, prf_,
                                          static_cast<std::uint64_t>(k));
    } else {
      // Ablation: the [IKY12] estimator — accurate but irreproducible.
      threshold = ecdf.quantile(p);
    }
    threshold = std::min(threshold, previous);  // keep non-increasing
    previous = threshold;
    run.thresholds_grid.push_back(threshold);
  }
  // Lines 11-14: drop the last threshold when it falls below eps^2.
  const std::int64_t eps2_grid = domain_.to_grid(config_.eps * config_.eps);
  if (!run.thresholds_grid.empty() && run.thresholds_grid.back() < eps2_grid) {
    run.thresholds_grid.pop_back();
  }
  run.thresholds.reserve(run.thresholds_grid.size());
  for (const auto g : run.thresholds_grid) {
    run.thresholds.push_back(domain_.from_grid(g));
  }
}

void LcaKp::finalize_run(LcaKpRun& run,
                         std::span<const iky::NormLargeItem> large) const {
  // ---- Steps 3-4 (lines 18-19): construct Ĩ and convert its greedy. ------
  const iky::TildeInstance tilde =
      iky::construct_tilde(large, run.thresholds, config_.eps,
                           access_->norm_capacity());
  run.tilde_size = tilde.items.size();
  const ConvertGreedyResult cg = convert_greedy(tilde, run.thresholds);
  run.index_large.insert(cg.index_large.begin(), cg.index_large.end());
  run.singleton = cg.singleton;
  run.degenerate = cg.degenerate;
  if (cg.e_small_idx >= 0) {
    run.e_small_grid = run.thresholds_grid.at(static_cast<std::size_t>(cg.e_small_idx));
  }
}

std::uint64_t run_digest(const LcaKpRun& run) {
  std::uint64_t h = 0x243F6A8885A308D3ULL;  // pi, nothing up the sleeve
  const auto absorb = [&h](std::uint64_t word) { h = util::mix64(h ^ word); };
  std::vector<std::size_t> sorted(run.index_large.begin(), run.index_large.end());
  std::sort(sorted.begin(), sorted.end());
  absorb(sorted.size());
  for (const auto i : sorted) absorb(static_cast<std::uint64_t>(i));
  absorb(static_cast<std::uint64_t>(run.e_small_grid));
  absorb((run.singleton ? 2u : 0u) | (run.degenerate ? 1u : 0u));
  absorb(run.thresholds_grid.size());
  for (const auto g : run.thresholds_grid) absorb(static_cast<std::uint64_t>(g));
  return h;
}

bool LcaKp::decide(const LcaKpRun& run, std::size_t index, double norm_profit,
                   double efficiency) const {
  // Lines 20-24 of Algorithm 2.
  if (norm_profit > config_.eps * config_.eps) {
    return run.index_large.contains(index);
  }
  return run.e_small_grid >= 0 && domain_.to_grid(efficiency) >= run.e_small_grid;
}

LcaKp::AnswerWitness LcaKp::witness_from(const LcaKpRun& run, std::size_t i,
                                         const knapsack::Item& item) const {
  const double norm_profit = access_->norm_profit(item);
  AnswerWitness witness;
  witness.profit = item.profit;
  witness.weight = item.weight;
  witness.large = norm_profit > config_.eps * config_.eps;
  witness.answer = decide(run, i, norm_profit, access_->efficiency(item));
  return witness;
}

bool LcaKp::answer_from(const LcaKpRun& run, std::size_t i) const {
  const knapsack::Item item = access_->query(i);
  return decide(run, i, access_->norm_profit(item), access_->efficiency(item));
}

bool LcaKp::answer_with_witness(const LcaKpRun& run, std::size_t i,
                                AnswerWitness& witness) const {
  witness = witness_from(run, i, access_->query(i));
  return witness.answer;
}

bool LcaKp::answer(std::size_t i, util::Xoshiro256& sample_rng) const {
  const LcaKpRun run = run_pipeline(sample_rng);
  return answer_from(run, i);
}

}  // namespace lcaknap::core
