// Resilient serving: the full failure-injection stack.  The instance oracle
// is a flaky remote service with realistic latency; the client stack —
// answer verification, retries with decorrelated-jitter backoff and a retry
// budget — restores reliability, and LCA-KP serves on top unchanged.  The
// run reports how many injected failures occurred, how many retries
// absorbed them at what simulated backoff cost, and that the served
// solution is bit-identical to the reliable reference.  A second section
// turns on answer *corruption* and shows the verifier catching every lie.
// At the end it prints what a Prometheus scrape of this process would
// return — the same accounting, read off the metrics registry.
//
//   ./resilient_serving [failure_rate]

#include <cstdlib>
#include <iostream>

#include "core/lca_kp.h"
#include "core/mapping_greedy.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "fault/verifying.h"
#include "knapsack/generators.h"
#include "metrics/exporters.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "oracle/retrying.h"
#include "oracle/instrumented.h"
#include "util/table.h"
#include "util/virtual_clock.h"

int main(int argc, char** argv) {
  using namespace lcaknap;

  const double failure_rate = argc > 1 ? std::strtod(argv[1], nullptr) : 0.2;
  constexpr std::size_t kN = 20'000;

  const auto instance = knapsack::make_family(knapsack::Family::kNeedle, kN, 23);

  // The stack, innermost first: storage -> metrics instrumentation ->
  // simulated RPC latency -> scripted fail-stops -> answer verification ->
  // client-side retries with backoff.  Fail-stops fire *before* the
  // sampling tape is consumed, which is what makes retries transparent.
  // RPC latency (80-140 us per call that reaches the service) accrues on its
  // own virtual clock, apart from the backoff's.
  const oracle::MaterializedAccess storage(instance);
  const oracle::InstrumentedAccess counted(storage);
  util::VirtualClock rpc_clock;
  const fault::ChaosAccess remote(counted, fault::parse_fault_plan("rpc:0:lat=80..140", 31),
                                  rpc_clock);
  fault::FaultPhase outage;
  outage.label = "flaky";
  outage.fail_rate = failure_rate;
  const fault::ChaosAccess flaky(remote, fault::FaultPlan({outage}, /*seed=*/37));
  const fault::VerifyingAccess verified(flaky);

  // Backoff sleeps go through the injected clock, so the example runs in
  // microseconds of real time and the backoff bill is exact simulated time.
  util::VirtualClock clock;
  oracle::RetryConfig retry_config;
  retry_config.max_attempts = 64;
  retry_config.base_backoff_us = 50;
  retry_config.max_backoff_us = 5'000;
  retry_config.retry_budget_ratio = 1.0;  // generous: this demo wants no escapes
  const oracle::RetryingAccess client(verified, retry_config, clock);

  std::cout << "oracle stack: storage -> latency -> " << failure_rate * 100
            << "% fail-stops -> verify -> retries(backoff+jitter)\n\n";

  core::LcaKpConfig config;
  config.eps = 0.1;
  config.seed = 0x4E5;
  config.quantile_samples = 200'000;
  const core::LcaKp lca(client, config);

  util::Xoshiro256 tape(41);
  const auto run = lca.run_pipeline(tape);
  const auto eval = core::evaluate_run(instance, lca, run);

  // Reference: the same pipeline against the reliable oracle directly.
  const core::LcaKp reference_lca(storage, config);
  util::Xoshiro256 ref_tape(41);
  const auto reference = reference_lca.run_pipeline(ref_tape);
  const auto ref_eval = core::evaluate_run(instance, reference_lca, reference);

  util::Table table({"metric", "with failures", "reliable reference"});
  table.row()
      .cell("feasible")
      .cell(eval.feasible ? "yes" : "no")
      .cell(ref_eval.feasible ? "yes" : "no");
  table.row()
      .cell("value (normalized)")
      .cell(util::format_double(eval.norm_value))
      .cell(util::format_double(ref_eval.norm_value));
  table.row()
      .cell("samples used")
      .cell(std::to_string(run.samples_used))
      .cell(std::to_string(reference.samples_used));
  table.print(std::cout, "served solution, flaky vs reliable oracle");

  std::cout << "\nfailure accounting:\n"
            << "  injected fail-stops: " << flaky.failstops_injected() << "\n"
            << "  retries performed  : " << client.retries_performed() << "\n"
            << "  backoff slept      : "
            << util::format_double(static_cast<double>(client.backoff_slept_us()) / 1e6, 2)
            << " s (simulated)\n"
            << "  simulated RPC time : "
            << util::format_double(static_cast<double>(rpc_clock.now_us()) / 1e6, 2)
            << " s\n"
            << "\nFailures fire before the sampling tape is consumed, so retries\n"
            << "are fully transparent: with the same seed and tape the flaky\n"
            << "stack reproduces the reliable run bit-for-bit (columns match\n"
            << "exactly) — it just pays more RPC and backoff time.\n";

  // A lying oracle: 30% of answers come back wrong but well-formed.  Every
  // corruption violates a metadata invariant the verifier checks for free,
  // so each lie becomes a retryable failure and the true item always lands.
  fault::FaultPhase lying;
  lying.label = "corrupting";
  lying.corrupt_rate = 0.3;
  const fault::ChaosAccess corrupting(storage, fault::FaultPlan({lying}, /*seed=*/53));
  const fault::VerifyingAccess guard(corrupting);
  const oracle::RetryingAccess healed(guard, oracle::RetryConfig{.max_attempts = 32});
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < 1'000; ++i) {
    wrong += healed.query(i) == instance.item(i) ? 0 : 1;
  }
  std::cout << "\ncorruption drill (30% corrupted answers, 1000 queries):\n"
            << "  corruptions injected: " << corrupting.corruptions_injected() << "\n"
            << "  corruptions detected: " << guard.corruptions_detected() << "\n"
            << "  wrong answers served: " << wrong << "\n";

  std::cout << "\n--- what a Prometheus scrape of this process returns ---\n";
  metrics::write_registry(metrics::global_registry(),
                          metrics::ExportFormat::kPrometheus, std::cout);
  return 0;
}
