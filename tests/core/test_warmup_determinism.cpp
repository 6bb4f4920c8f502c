#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "oracle/access.h"
#include "util/rng.h"

/// The sharded warm-up's whole contract (ISSUE: Lemma 4.9 preserved under
/// parallelism): `(L(Ĩ), EPS)` — summarized by `run_digest` — is a pure
/// function of the tape seed and the shared seed, never of the thread count
/// or of which pool executed the shards.  These tests pin that contract; the
/// CI TSan job also runs them to catch data races in the shard merge.

namespace lcaknap::core {
namespace {

LcaKpConfig warmup_config(double eps = 0.25, std::uint64_t seed = 0xABCD) {
  LcaKpConfig config;
  config.eps = eps;
  config.seed = seed;
  config.quantile_samples = 60'000;  // test-sized budget
  return config;
}

TEST(WarmupDeterminism, DigestIdenticalAcrossThreadCounts) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 20'000, 41);
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, warmup_config());
  const std::uint64_t baseline = run_digest(lca.run_warmup(7, 1));
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const auto run = lca.run_warmup(7, threads);
    EXPECT_EQ(run_digest(run), baseline) << "threads=" << threads;
  }
}

TEST(WarmupDeterminism, FullRunStateIdenticalAcrossThreadCounts) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 10'000, 3);
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, warmup_config(0.2));
  const auto sequential = lca.run_warmup(11, 1);
  const auto parallel = lca.run_warmup(11, 4);
  EXPECT_EQ(parallel.index_large, sequential.index_large);
  EXPECT_EQ(parallel.e_small_grid, sequential.e_small_grid);
  EXPECT_EQ(parallel.singleton, sequential.singleton);
  EXPECT_EQ(parallel.degenerate, sequential.degenerate);
  EXPECT_EQ(parallel.thresholds_grid, sequential.thresholds_grid);
  EXPECT_EQ(parallel.thresholds, sequential.thresholds);
  EXPECT_EQ(parallel.large_mass, sequential.large_mass);  // bit-exact
  EXPECT_EQ(parallel.samples_used, sequential.samples_used);
}

TEST(WarmupDeterminism, RepeatedRunsSameSeedIdentical) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 5'000, 9);
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, warmup_config());
  const std::uint64_t first = run_digest(lca.run_warmup(21, 2));
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(run_digest(lca.run_warmup(21, 2)), first);
  }
}

TEST(WarmupDeterminism, DifferentTapeSeedsStillAgree) {
  // Lemma 4.9 in action: replicas with *different* fresh tapes still settle
  // on the same (L(Ĩ), EPS) w.h.p. — the digest agrees across tape seeds,
  // not just across thread counts.
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 10'000, 3);
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, warmup_config(0.2));
  const std::uint64_t base = run_digest(lca.run_warmup(1, 2));
  std::size_t agreements = 0;
  for (std::uint64_t seed = 2; seed <= 6; ++seed) {
    agreements += run_digest(lca.run_warmup(seed, 2)) == base ? 1 : 0;
  }
  EXPECT_GE(agreements, 4u);  // w.h.p., allow one unlucky tape
}

TEST(WarmupDeterminism, DifferentInstancesProduceDifferentDigests) {
  // Sanity that the digest actually reads the served state: distinct
  // instances must not collide over a handful of draws.
  const LcaKpConfig config = warmup_config(0.2);
  std::vector<std::uint64_t> digests;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = knapsack::make_family(
        knapsack::Family::kUncorrelated, 10'000, seed);
    const oracle::MaterializedAccess access(inst);
    const LcaKp lca(access, config);
    digests.push_back(run_digest(lca.run_warmup(7, 2)));
  }
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::unique(digests.begin(), digests.end()), digests.end());
}

TEST(WarmupDeterminism, ConfigThreadsZeroMeansHardwareConcurrency) {
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 5'000, 9);
  const oracle::MaterializedAccess access(inst);
  auto config = warmup_config();
  config.warmup_threads = 0;  // hardware concurrency
  const LcaKp lca(access, config);
  // Still identical to an explicit single-threaded run: thread count is
  // performance-only.
  EXPECT_EQ(run_digest(lca.run_warmup(7)), run_digest(lca.run_warmup(7, 1)));
}

TEST(WarmupDeterminism, GoldenRuns) {
  // The tests above compare runs with each other, so a change that shifted
  // every warm-up the same way would pass them.  These values pin the served
  // state itself, for the sharded warm-up and for the single-tape pipeline
  // that E1-E13 run.
  struct Golden {
    std::uint64_t digest;
    std::uint64_t samples_used;
    std::vector<std::int64_t> thresholds_grid;
  };
  const auto expect_golden = [](const LcaKpRun& run, const Golden& golden,
                                const char* what) {
    EXPECT_EQ(run_digest(run), golden.digest) << what;
    EXPECT_EQ(run.samples_used, golden.samples_used) << what;
    EXPECT_EQ(run.thresholds_grid, golden.thresholds_grid) << what;
  };
  {
    const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 20'000, 41);
    const oracle::MaterializedAccess access(inst);
    const LcaKp lca(access, warmup_config());
    util::Xoshiro256 tape(7);
    expect_golden(lca.run_warmup(7, 1),
                  {17303474194513386089ULL, 61089, {2426, 1790}}, "needle warm-up");
    expect_golden(lca.run_pipeline(tape),
                  {15651679872329946864ULL, 61089, {2425, 1790}}, "needle pipeline");
  }
  {
    const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 10'000, 3);
    const oracle::MaterializedAccess access(inst);
    const LcaKp lca(access, warmup_config(0.2));
    util::Xoshiro256 tape(7);
    expect_golden(lca.run_warmup(7, 1),
                  {14083176683057456999ULL, 61899, {2159, 2089, 2052, 1999}},
                  "uncorrelated warm-up");
    expect_golden(lca.run_pipeline(tape),
                  {15683234668043557391ULL, 61899, {2159, 2088, 2052, 1999}},
                  "uncorrelated pipeline");
  }
}

TEST(WarmupDeterminism, DigestDistinguishesRuns) {
  LcaKpRun a;
  a.index_large = {3, 1, 2};
  a.e_small_grid = 17;
  a.thresholds_grid = {40, 30, 17};
  LcaKpRun b = a;
  EXPECT_EQ(run_digest(a), run_digest(b));
  b.index_large.insert(9);
  EXPECT_NE(run_digest(a), run_digest(b));
  b = a;
  b.singleton = true;
  EXPECT_NE(run_digest(a), run_digest(b));
  b = a;
  b.thresholds_grid.back() = 16;
  EXPECT_NE(run_digest(a), run_digest(b));
}

}  // namespace
}  // namespace lcaknap::core
