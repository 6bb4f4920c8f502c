// E17 — parallel deterministic warm-up + allocation-lean hot paths.
//
// Three tables:
//  1. determinism: run_warmup digests across warmup_threads in {1,2,4,8} must
//     be identical (the Lemma 4.9 state is pinned to PRF substreams, not to
//     threads) — a mismatch is a hard failure (exit 1);
//  2. CPU-bound warm-up wall time vs thread count (in-memory oracle).  The
//     >= 2x @ 4 threads prediction is only *asserted* when the machine has
//     >= 4 hardware threads; single-core hosts still print the table;
//  3. latency-modeled oracle: every draw sleeps ~25 us (a stand-in for a
//     remote input service), so thread overlap pays even on one core — the
//     >= 2x @ 4 threads assertion always applies here.
//
// Also constructs a ServeEngine to exercise the warmup_duration_us /
// warmup_threads metrics and reports them.
//
// Flags: --smoke shrinks every budget for CI; --json PATH writes a one-object
// JSON summary (default BENCH_warmup.json when --json has no value).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;
using lcaknap::util::Xoshiro256;

/// Latency-modeled oracle: forwards to an in-memory access but sleeps on
/// every counted operation, imitating a remote input service.  Warm-up
/// threads overlap these sleeps, which is the deployment story for the
/// parallel warm-up even on machines without spare cores.
class SleepyAccess final : public lcaknap::oracle::InstanceAccess {
 public:
  SleepyAccess(const lcaknap::oracle::InstanceAccess& inner,
               std::chrono::microseconds delay)
      : inner_(&inner), delay_(delay) {}

  [[nodiscard]] std::size_t size() const noexcept override { return inner_->size(); }
  [[nodiscard]] std::int64_t capacity() const noexcept override {
    return inner_->capacity();
  }
  [[nodiscard]] std::int64_t total_profit() const noexcept override {
    return inner_->total_profit();
  }
  [[nodiscard]] std::int64_t total_weight() const noexcept override {
    return inner_->total_weight();
  }

 protected:
  [[nodiscard]] lcaknap::knapsack::Item do_query(std::size_t i) const override {
    std::this_thread::sleep_for(delay_);
    return inner_->query(i);
  }
  [[nodiscard]] lcaknap::oracle::WeightedDraw do_sample(
      Xoshiro256& rng) const override {
    std::this_thread::sleep_for(delay_);
    return inner_->weighted_sample(rng);
  }

 private:
  const lcaknap::oracle::InstanceAccess* inner_;
  std::chrono::microseconds delay_;
};

double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

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
      cpu_ms[i] = median_ms(reps, [&] { (void)lca.run_warmup(7, counts[i]); });
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
    const SleepyAccess access(storage, std::chrono::microseconds(25));
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
          median_ms(smoke ? 1 : 3, [&] { (void)lca.run_warmup(7, counts[i]); });
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
