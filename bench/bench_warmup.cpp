// E17 — parallel deterministic warm-up + allocation-lean hot paths.
//
// Three tables:
//  1. determinism: run_warmup digests across warmup_threads in {1,2,4,8} must
//     be identical (the Lemma 4.9 state is pinned to PRF substreams, not to
//     threads) — a mismatch is a hard failure (exit 1);
//  2. CPU-bound warm-up wall time vs thread count (in-memory oracle).  The
//     >= 2x @ 4 threads prediction is only *asserted* when the machine has
//     >= 4 hardware threads; single-core hosts still print the table;
//  3. latency-modeled oracle: a `ChaosAccess` layer (`lat=25` on the system
//     clock) sleeps ~25 us on every query and draw (a stand-in for a remote
//     input service), so thread overlap pays even on one core — the >= 2x
//     @ 4 threads assertion always applies here.
//
// Also constructs a ServeEngine to exercise the warmup_duration_us /
// warmup_threads metrics and reports them.
//
// Flags: --smoke shrinks every budget for CI; --json PATH writes a one-object
// JSON summary (default BENCH_warmup.json when --json has no value).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/lca_kp.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "util/rng.h"
#include "util/table.h"

#include "timing.h"

int main(int argc, char** argv) {
  using namespace lcaknap;

  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                          : "BENCH_warmup.json";
    } else {
      std::cerr << "usage: bench_warmup [--smoke] [--json [PATH]]\n";
      return 2;
    }
  }

  std::cout << "E17: parallel deterministic warm-up + allocation-lean hot "
               "paths" << (smoke ? " [smoke]" : "") << "\n\n";

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  bool ok = true;

  // --- 1. Determinism across thread counts. --------------------------------
  bool digests_equal = true;
  {
    const auto inst = knapsack::make_family(knapsack::Family::kNeedle,
                                            smoke ? 10'000 : 50'000, 41);
    const oracle::MaterializedAccess access(inst);
    core::LcaKpConfig config;
    config.eps = 0.25;
    config.seed = 0xE17;
    config.quantile_samples = smoke ? 100'000 : 1'000'000;
    const core::LcaKp lca(access, config);

    util::Table table({"warmup_threads", "digest", "matches t=1"});
    std::uint64_t baseline = 0;
    for (const std::size_t threads : {1, 2, 4, 8}) {
      const std::uint64_t digest = core::run_digest(lca.run_warmup(7, threads));
      if (threads == 1) baseline = digest;
      const bool match = digest == baseline;
      digests_equal &= match;
      table.row()
          .cell(static_cast<long long>(threads))
          .cell(std::to_string(digest))
          .cell(match ? "yes" : "NO");
    }
    table.print(std::cout,
                "determinism: (L(I~), EPS) digest vs warm-up thread count");
    std::cout << "\n";
    if (!digests_equal) {
      std::cerr << "FAIL: warm-up digest depends on thread count\n";
      ok = false;
    }
  }

  // --- 2. CPU-bound warm-up scaling (in-memory oracle). --------------------
  double cpu_ms[3] = {0, 0, 0};  // threads 1, 2, 4
  {
    const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated,
                                            smoke ? 20'000 : 100'000, 3);
    const oracle::MaterializedAccess access(inst);
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0xE17;
    config.quantile_samples = smoke ? 400'000 : 2'000'000;
    const core::LcaKp lca(access, config);

    util::Table table({"threads", "median ms", "speedup vs 1"});
    const int reps = smoke ? 1 : 3;
    const std::size_t counts[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
      cpu_ms[i] = bench::median_ms(reps, [&] { (void)lca.run_warmup(7, counts[i]); });
      table.row()
          .cell(static_cast<long long>(counts[i]))
          .cell(cpu_ms[i], 2)
          .cell(cpu_ms[0] / cpu_ms[i], 2);
    }
    table.print(std::cout, "CPU-bound warm-up wall time (in-memory oracle, " +
                               std::to_string(hw) + " hardware threads)");
    std::cout << "\n";
    if (hw >= 4 && cpu_ms[0] / cpu_ms[2] < 2.0) {
      std::cerr << "FAIL: CPU-bound speedup @4 threads below 2x on a >=4-way "
                   "machine\n";
      ok = false;
    }
  }

  // --- 3. Latency-modeled oracle: sleeps overlap across threads. -----------
  double sleepy_ms[2] = {0, 0};  // threads 1, 4
  {
    const auto inst =
        knapsack::make_family(knapsack::Family::kUncorrelated, 2'000, 3);
    const oracle::MaterializedAccess storage(inst);
    const fault::ChaosAccess access(storage, fault::parse_fault_plan("rpc:0:lat=25", 0xE17));
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0xE17;
    config.large_samples = smoke ? 400 : 1'200;
    config.quantile_samples = smoke ? 800 : 2'400;
    const core::LcaKp lca(access, config);

    util::Table table({"threads", "median ms", "speedup vs 1"});
    const std::size_t counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      sleepy_ms[i] =
          bench::median_ms(smoke ? 1 : 3, [&] { (void)lca.run_warmup(7, counts[i]); });
      table.row()
          .cell(static_cast<long long>(counts[i]))
          .cell(sleepy_ms[i], 2)
          .cell(sleepy_ms[0] / sleepy_ms[i], 2);
    }
    table.print(std::cout,
                "latency-modeled oracle (~25 us per draw): sleep overlap");
    std::cout << "\n";
    if (sleepy_ms[0] / sleepy_ms[1] < 2.0) {
      std::cerr << "FAIL: latency-bound speedup @4 threads below 2x\n";
      ok = false;
    }
  }

  // --- Engine warm-up metrics. ---------------------------------------------
  double engine_warmup_us = 0.0;
  {
    const auto inst =
        knapsack::make_family(knapsack::Family::kUncorrelated, 10'000, 3);
    const oracle::MaterializedAccess access(inst);
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.quantile_samples = smoke ? 50'000 : 200'000;
    const core::LcaKp lca(access, config);
    metrics::Registry registry;
    serve::EngineConfig engine_config;
    engine_config.workers = 2;
    engine_config.warmup_threads = 2;
    serve::ServeEngine engine(lca, engine_config, registry);
    engine.drain();
    const auto snapshot = registry.snapshot();
    util::Table table({"metric", "value"});
    for (const auto& h : snapshot.histograms) {
      if (h.name == "warmup_duration_us") engine_warmup_us = h.sum;
    }
    for (const auto& g : snapshot.gauges) {
      if (g.name == "warmup_threads") {
        table.row().cell("warmup_threads").cell(g.value, 0);
      }
    }
    table.row().cell("warmup_duration_us").cell(engine_warmup_us, 1);
    table.print(std::cout, "ServeEngine warm-up metrics (registry readout)");
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"warmup\",\n"
       << "  \"experiment\": \"E17\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"digests_equal_across_threads\": "
       << (digests_equal ? "true" : "false") << ",\n"
       << "  \"cpu_warmup_ms\": {\"t1\": " << cpu_ms[0] << ", \"t2\": "
       << cpu_ms[1] << ", \"t4\": " << cpu_ms[2] << "},\n"
       << "  \"sleepy_warmup_ms\": {\"t1\": " << sleepy_ms[0] << ", \"t4\": "
       << sleepy_ms[1] << ", \"speedup\": " << sleepy_ms[0] / sleepy_ms[1]
       << "},\n"
       << "  \"engine_warmup_duration_us\": " << engine_warmup_us << ",\n"
       << "  \"pass\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }

  return ok ? 0 : 1;
}
