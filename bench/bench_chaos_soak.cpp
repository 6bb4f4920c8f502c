// E16 — chaos-soak: scripted outage vs the resilient client stack.
//
// Both runs serve the same paced trace through the same scripted storm
// (steady -> hard outage -> brownout -> recovered, wall-clock scheduled):
//
//   naive      storage -> chaos -> retrying(immediate, 16 attempts),
//              degradation off — the pre-resilience client, which answers
//              outage failures with kError after hammering the dead oracle;
//   resilient  storage -> chaos -> verifying -> retrying(backoff + jitter +
//              budget) -> circuit breaker, degradation on — outage requests
//              fall back to the warm-state rule and count as kDegraded.
//
// Falsifiable predictions (EXPERIMENTS.md E16): resilient goodput is
// strictly above naive during the outage window; the resilient stack wastes
// strictly fewer oracle calls on a dead oracle (the breaker stops paying to
// rediscover the outage); with corruption rate 0 the verifier never fires;
// and the outcome conservation law holds exactly for both runs.  Violations
// exit nonzero.

#include <chrono>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "core/lca_kp.h"
#include "core/workload.h"
#include "fault/chaos.h"
#include "fault/circuit_breaker.h"
#include "fault/verifying.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/retrying.h"
#include "serve/engine.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace lcaknap;

fault::FaultPlan storm_plan() {
  // Wall-clock phases; the whole scripted storm lasts 700 ms.
  return fault::parse_fault_plan(
      "steady:150;outage:250:fail=1;brownout:300:fail=0.3,lat=50..200;"
      "recovered:0",
      /*seed=*/0xE16);
}

struct SoakResult {
  serve::EngineStats stats;
  double goodput_qps = 0.0;       // (ok + degraded) per wall second
  double p99_us = 0.0;            // engine-side request latency
  std::uint64_t wasted_calls = 0; // oracle calls answered by a fail-stop
  std::uint64_t corruptions_detected = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_rejected = 0;
  bool conserved = false;
};

struct SoakConfig {
  bool resilient = false;
  std::size_t requests = 16'000;
  std::size_t burst = 16;                       // submissions per pacing tick
  std::chrono::microseconds tick{1'000};        // open-loop pacing interval
};

SoakResult soak(const oracle::InstanceAccess& storage, const SoakConfig& soak_config,
                const std::vector<std::size_t>& trace) {
  metrics::Registry registry;
  fault::ChaosAccess chaos(storage, storm_plan(), util::system_clock(),
                           /*armed=*/false, registry);

  // Client-side policy, naive vs resilient.
  const fault::VerifyingAccess verified(chaos, registry);
  oracle::RetryConfig naive_retries;
  naive_retries.max_attempts = 16;  // immediate hammering, no backoff
  oracle::RetryConfig resilient_retries;
  resilient_retries.max_attempts = 5;
  resilient_retries.base_backoff_us = 200;
  resilient_retries.max_backoff_us = 20'000;
  resilient_retries.retry_budget_ratio = 0.1;
  resilient_retries.retry_budget_initial = 64;
  const oracle::RetryingAccess retrying(
      soak_config.resilient ? static_cast<const oracle::InstanceAccess&>(verified)
                            : chaos,
      soak_config.resilient ? resilient_retries : naive_retries,
      util::system_clock(), registry);
  fault::CircuitBreakerConfig breaker_config;
  breaker_config.consecutive_failures = 5;
  breaker_config.open_cooldown_us = 25'000;
  const fault::BreakerAccess guarded(retrying, breaker_config,
                                     util::system_clock(), registry);
  const oracle::InstanceAccess& client =
      soak_config.resilient ? static_cast<const oracle::InstanceAccess&>(guarded)
                            : retrying;

  core::LcaKpConfig lca_config;
  lca_config.eps = 0.15;
  lca_config.seed = 0xE16;
  lca_config.quantile_samples = 50'000;
  const core::LcaKp lca(client, lca_config);

  serve::EngineConfig engine_config;
  engine_config.workers = 4;
  engine_config.queue_capacity = soak_config.requests;
  engine_config.batcher.max_batch_size = 32;
  engine_config.batcher.max_linger = std::chrono::microseconds(200);
  engine_config.cache.capacity = 1 << 12;
  engine_config.cache.shards = 8;
  engine_config.degrade = soak_config.resilient;
  serve::ServeEngine engine(lca, engine_config, registry);

  chaos.arm();  // warm-up done: the storm begins with the first request

  // Open-loop pacing: submit a burst every tick regardless of completions,
  // like upstream traffic that does not slow down because we are failing.
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(soak_config.requests);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < soak_config.requests; ++i) {
    futures.push_back(engine.submit(trace[i % trace.size()]));
    if ((i + 1) % soak_config.burst == 0) {
      std::this_thread::sleep_for(soak_config.tick);
    }
  }
  std::uint64_t answered = 0;
  for (auto& future : futures) {
    const auto outcome = future.get().outcome;
    answered += outcome == serve::Outcome::kOk ||
                        outcome == serve::Outcome::kDegraded
                    ? 1
                    : 0;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  engine.drain();

  SoakResult result;
  result.stats = engine.stats();
  result.goodput_qps = static_cast<double>(answered) / seconds;
  result.p99_us =
      registry
          .histogram("serve_request_latency_us",
                     "End-to-end request latency in microseconds (admission to "
                     "completion)",
                     serve::serve_latency_buckets())
          .percentile(0.99);
  result.wasted_calls = chaos.failstops_injected();
  result.corruptions_detected = verified.corruptions_detected();
  result.breaker_trips = guarded.breaker().counters().to_open;
  result.breaker_rejected = guarded.breaker().counters().rejected;
  result.conserved =
      result.stats.submitted ==
      result.stats.ok + result.stats.overloaded + result.stats.deadline_exceeded +
          result.stats.degraded + result.stats.errors;
  return result;
}

}  // namespace

int main() {
  using namespace lcaknap;

  std::cout << "E16: chaos soak — naive retries vs backoff + breaker + degrade\n"
               "storm: " << storm_plan().describe() << "\n\n";

  constexpr std::size_t kN = 20'000;
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, kN, 161);
  const oracle::MaterializedAccess storage(inst);

  core::WorkloadConfig workload;
  workload.shape = core::WorkloadConfig::Shape::kZipf;
  workload.queries = 16'000;
  const auto trace = core::generate_workload(kN, workload);

  SoakConfig naive_config;
  SoakConfig resilient_config;
  resilient_config.resilient = true;
  const auto naive = soak(storage, naive_config, trace);
  const auto resilient = soak(storage, resilient_config, trace);

  util::Table table({"client", "goodput qps", "ok", "degraded", "errors",
                     "p99 us", "wasted calls", "trips", "fast-fails",
                     "conserved"});
  const auto emit = [&table](const char* name, const SoakResult& r) {
    table.row()
        .cell(name)
        .cell(r.goodput_qps, 0)
        .cell(r.stats.ok)
        .cell(r.stats.degraded)
        .cell(r.stats.errors)
        .cell(r.p99_us, 0)
        .cell(r.wasted_calls)
        .cell(r.breaker_trips)
        .cell(r.breaker_rejected)
        .cell(r.conserved ? "exact" : "VIOLATED");
  };
  emit("naive retry", naive);
  emit("resilient", resilient);
  table.print(std::cout,
              "16000 requests, zipf(1.1) trace, 4 workers, 700 ms scripted storm");

  bool pass = true;
  const auto check = [&pass](bool ok, const char* what) {
    std::cout << (ok ? "  pass  " : "  FAIL  ") << what << "\n";
    pass = pass && ok;
  };
  std::cout << "\nE16 predictions:\n";
  check(naive.conserved && resilient.conserved,
        "outcome conservation exact in both runs");
  check(resilient.goodput_qps > naive.goodput_qps,
        "resilient goodput strictly above naive under the same storm");
  check(resilient.stats.degraded > 0,
        "outage traffic was served degraded, not errored");
  check(resilient.wasted_calls < naive.wasted_calls,
        "breaker + backoff waste fewer calls on a dead oracle");
  check(naive.corruptions_detected == 0 && resilient.corruptions_detected == 0,
        "zero verifier detections under a corruption-free plan");

  std::cout << "\nShape to check: during the hard outage the naive client burns\n"
               "16 immediate attempts per request and still answers kError; the\n"
               "resilient client trips its breaker after a handful of failures,\n"
               "fast-fails the rest, and serves the warm-state fallback as\n"
               "kDegraded — goodput stays up and the dead oracle is left alone.\n";
  return pass ? 0 : 2;
}
