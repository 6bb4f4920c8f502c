#include "oracle/instrumented.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/generators.h"
#include "oracle/retrying.h"
#include "oracle/sharded.h"

namespace lcaknap::oracle {
namespace {

knapsack::Instance small_instance() {
  return knapsack::make_family(knapsack::Family::kUncorrelated, 200, 17);
}

/// Replays a fixed mixed query/sample call sequence against `access`.
void recorded_call_sequence(const InstanceAccess& access, std::uint64_t tape_seed) {
  util::Xoshiro256 tape(tape_seed);
  for (int round = 0; round < 500; ++round) {
    (void)access.query(static_cast<std::size_t>(tape.next_below(access.size())));
    if (round % 3 == 0) (void)access.weighted_sample(tape);
    if (round % 7 == 0) {
      (void)access.query(static_cast<std::size_t>(tape.next_below(access.size())));
    }
  }
}

TEST(InstrumentedAccess, RegistryCountsMatchLegacyAtomicsExactly) {
  const auto inst = small_instance();
  metrics::Registry registry;
  const MaterializedAccess storage(inst);
  const InstrumentedAccess access(storage, registry);

  recorded_call_sequence(access, 5);

  // Canonical path (registry) == decorator's legacy shims == storage's.
  EXPECT_EQ(registry.counter_value("oracle_queries_total"), access.query_count());
  EXPECT_EQ(registry.counter_value("oracle_samples_total"), access.sample_count());
  EXPECT_EQ(access.query_count(), storage.query_count());
  EXPECT_EQ(access.sample_count(), storage.sample_count());
  EXPECT_GT(access.query_count(), 0u);
  EXPECT_GT(access.sample_count(), 0u);
}

TEST(InstrumentedAccess, IsTransparentToResults) {
  const auto inst = small_instance();
  metrics::Registry registry;
  const MaterializedAccess plain(inst);
  const MaterializedAccess storage(inst);
  const InstrumentedAccess instrumented(storage, registry);

  util::Xoshiro256 tape_a(9);
  util::Xoshiro256 tape_b(9);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(instrumented.query(static_cast<std::size_t>(i % inst.size())),
              plain.query(static_cast<std::size_t>(i % inst.size())));
    const auto draw_a = instrumented.weighted_sample(tape_a);
    const auto draw_b = plain.weighted_sample(tape_b);
    EXPECT_EQ(draw_a.index, draw_b.index);
    EXPECT_EQ(draw_a.item, draw_b.item);
  }
}

TEST(InstrumentedAccess, ConcurrentTrafficKeepsBothPathsEqual) {
  const auto inst = small_instance();
  metrics::Registry registry;
  const MaterializedAccess storage(inst);
  const InstrumentedAccess access(storage, registry);
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&access, t] { recorded_call_sequence(access, 100 + static_cast<std::uint64_t>(t)); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter_value("oracle_queries_total"), access.query_count());
  EXPECT_EQ(registry.counter_value("oracle_samples_total"), access.sample_count());
}

TEST(FlakyAndRetrying, FailureAndRetryCountersMirrorLegacyAccessors) {
  const auto inst = small_instance();
  metrics::Registry registry;
  const MaterializedAccess storage(inst);
  const InstrumentedAccess instrumented(storage, registry);
  const fault::ChaosAccess flaky(instrumented,
                                 fault::parse_fault_plan("flaky:0:fail=0.3", 11),
                                 util::system_clock(), /*armed=*/true, registry);
  const RetryingAccess client(flaky, RetryConfig{.max_attempts = 64},
                              util::system_clock(), registry);

  recorded_call_sequence(client, 21);

  EXPECT_GT(flaky.failstops_injected(), 0u);
  EXPECT_EQ(registry.counter_value("fault_injected_total", {{"kind", "failstop"}}),
            flaky.failstops_injected());
  EXPECT_EQ(registry.counter_value("oracle_retries_total"), client.retries_performed());
  // Every injected failure was absorbed by exactly one retry.
  EXPECT_EQ(flaky.failstops_injected(), client.retries_performed());
  // Failures fire before storage is touched: the canonical query/sample
  // counters only see successful attempts.
  EXPECT_EQ(registry.counter_value("oracle_queries_total"), storage.query_count());
  EXPECT_EQ(registry.counter_value("oracle_samples_total"), storage.sample_count());
}

TEST(FlakyAndRetrying, ReliableStackRegistersZeroedFamilies) {
  const auto inst = small_instance();
  metrics::Registry registry;
  const MaterializedAccess storage(inst);
  const RetryingAccess client(storage, RetryConfig{.max_attempts = 4},
                              util::system_clock(), registry);
  (void)client.query(0);
  // The family exists (an operator's dashboard can always plot it) at zero.
  const auto snap = registry.snapshot();
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "oracle_retries_total") {
      found = true;
      EXPECT_EQ(c.value, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ShardedAccess, PerShardTrafficCountersMatchShardLoads) {
  const auto inst = small_instance();
  metrics::Registry registry;
  const ShardedAccess sharded(inst, 4, registry);
  util::Xoshiro256 tape(31);
  for (int i = 0; i < 400; ++i) {
    (void)sharded.query(static_cast<std::size_t>(tape.next_below(inst.size())));
    (void)sharded.weighted_sample(tape);
  }
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    EXPECT_EQ(registry.counter_value("oracle_shard_accesses_total",
                                     {{"shard", std::to_string(s)}}),
              sharded.shard_load(s));
    total += sharded.shard_load(s);
  }
  EXPECT_EQ(total, sharded.access_count());
}

}  // namespace
}  // namespace lcaknap::oracle
