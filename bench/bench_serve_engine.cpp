// E15 — the concurrent serving engine vs sequential replay.  The engine's
// pitch is that the LCA serving model (answers are a deterministic function
// of the shared seed and the item, Definition 2.3) licenses batching and
// caching on top of plain parallelism.  To make that measurable, the oracle
// sits under a `ChaosAccess` latency layer (`lat=20`) that busy-waits a
// fixed RPC-scale cost per call.  The layer is disarmed while the warm-ups
// run (run_pipeline, and the engine's at construction) and armed for the
// timed replays, which read only queries: weighted samples stay in-memory.
// This is the remote-storage deployment the serving stack targets, where
// each cache miss costs a round trip.
//
// Baseline: one thread replaying the trace with `answer_from` (one delayed
// oracle read per query).  Engine: the same trace through submit() with
// batching + the sharded cache.  Shapes to check: >= 2x throughput at 4
// workers on hotspot traffic, cache hit rate > 50% on skewed shapes, and
// zero paranoia violations.  Exits 2 on a paranoia violation or when the
// engine's answers differ from the sequential replay's.

#include <chrono>
#include <iostream>
#include <vector>

#include "core/lca_kp.h"
#include "core/workload.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/generators.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/virtual_clock.h"

namespace {

using namespace lcaknap;

/// Real time whose sleeps busy-wait: sleep_for cannot hit tens-of-microsecond
/// targets reliably.
class SpinClock final : public util::Clock {
 public:
  [[nodiscard]] std::uint64_t now_us() const override {
    return util::system_clock().now_us();
  }
  void sleep_us(std::uint64_t us) override {
    const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
};

struct RunResult {
  double qps = 0.0;
  std::size_t yes = 0;
  std::size_t served_from_cache = 0;
};

RunResult sequential_replay(const core::LcaKp& lca, fault::ChaosAccess& rpc,
                            const std::vector<std::size_t>& trace) {
  util::Xoshiro256 tape(util::mix64(7));  // same tape seed as the engine
  rpc.disarm();  // the warm-up draws in memory; the replay's queries pay
  const auto run = lca.run_pipeline(tape);
  rpc.arm();
  RunResult result;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto item : trace) result.yes += lca.answer_from(run, item) ? 1 : 0;
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  result.qps = static_cast<double>(trace.size()) / s;
  return result;
}

struct EngineResult {
  RunResult run;
  serve::EngineStats stats;
};

EngineResult engine_replay(const core::LcaKp& lca, fault::ChaosAccess& rpc,
                           const std::vector<std::size_t>& trace,
                           std::size_t workers) {
  serve::EngineConfig config;
  config.workers = workers;
  config.queue_capacity = trace.size();  // admit the whole burst: this bench
                                         // measures throughput, not shedding
  config.batcher.max_batch_size = 64;
  config.batcher.max_linger = std::chrono::microseconds(200);
  config.cache.capacity = 1 << 14;
  config.cache.shards = 8;
  config.cache.paranoia_every = 64;
  rpc.disarm();  // as in sequential_replay: only the replay pays
  serve::ServeEngine engine(lca, config);
  rpc.arm();

  // Windowed closed-loop client: keep up to kWindow requests outstanding,
  // like a fleet of blocking callers.  A single unbounded burst would let
  // the batcher coalesce every duplicate before the cache ever warms, which
  // overstates batching and understates caching relative to paced traffic.
  constexpr std::size_t kWindow = 1'024;
  EngineResult result;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<serve::Response>> window;
  window.reserve(kWindow);
  const auto drain_window = [&] {
    for (auto& future : window) {
      const auto response = future.get();
      result.run.yes +=
          response.outcome == serve::Outcome::kOk && response.answer ? 1 : 0;
      result.run.served_from_cache += response.cache_hit ? 1 : 0;
    }
    window.clear();
  };
  for (const auto item : trace) {
    window.push_back(engine.submit(item));
    if (window.size() == kWindow) drain_window();
  }
  drain_window();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  engine.drain();
  result.run.qps = static_cast<double>(trace.size()) / s;
  result.stats = engine.stats();
  return result;
}

}  // namespace

int main() {
  using namespace lcaknap;

  std::cout << "E15: concurrent serving engine vs sequential replay\n"
               "(oracle query cost 20 us: the remote-storage deployment)\n\n";

  constexpr std::size_t kN = 50'000;
  constexpr std::size_t kQueries = 20'000;
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, kN, 151);
  const oracle::MaterializedAccess storage(inst);
  SpinClock spin;
  fault::ChaosAccess access(storage, fault::parse_fault_plan("rpc:0:lat=20", 0xE15),
                            spin, /*armed=*/false);

  core::LcaKpConfig lca_config;
  lca_config.eps = 0.1;
  lca_config.seed = 0xE15;
  lca_config.quantile_samples = 200'000;
  const core::LcaKp lca(access, lca_config);

  std::uint64_t paranoia_violations = 0;
  bool answers_match = true;
  util::Table table({"workload", "seq qps", "engine qps", "speedup", "hit rate",
                     "mean batch", "answers match"});
  for (const auto shape :
       {core::WorkloadConfig::Shape::kUniform, core::WorkloadConfig::Shape::kZipf,
        core::WorkloadConfig::Shape::kHotspot}) {
    core::WorkloadConfig workload;
    workload.shape = shape;
    workload.queries = kQueries;
    const auto trace = core::generate_workload(kN, workload);
    const auto seq = sequential_replay(lca, access, trace);
    const auto eng = engine_replay(lca, access, trace, 4);
    paranoia_violations += eng.stats.paranoia_violations;
    answers_match = answers_match && seq.yes == eng.run.yes;
    const char* name = shape == core::WorkloadConfig::Shape::kUniform ? "uniform"
                       : shape == core::WorkloadConfig::Shape::kZipf  ? "zipf(1.1)"
                                                                      : "hotspot(90/16)";
    // Request-level hit rate: a single cache lookup serves a whole batch, so
    // the per-lookup counters understate how much traffic the cache absorbs.
    table.row()
        .cell(name)
        .cell(seq.qps, 0)
        .cell(eng.run.qps, 0)
        .cell(eng.run.qps / seq.qps, 2)
        .cell(static_cast<double>(eng.run.served_from_cache) /
              static_cast<double>(trace.size()))
        .cell(eng.stats.batches > 0
                  ? static_cast<double>(eng.stats.batched_requests) /
                        static_cast<double>(eng.stats.batches)
                  : 0.0,
              1)
        .cell(seq.yes == eng.run.yes ? "yes" : "MISMATCH");
  }
  table.print(std::cout,
              "4 workers, 20000 queries, n = 50000, cache 16384, batch <= 64");

  // Scaling on the skewed shape: parallelism, batching and caching compound.
  core::WorkloadConfig hotspot;
  hotspot.shape = core::WorkloadConfig::Shape::kHotspot;
  hotspot.queries = kQueries;
  const auto trace = core::generate_workload(kN, hotspot);
  const auto seq = sequential_replay(lca, access, trace);
  util::Table scaling({"workers", "engine qps", "speedup vs sequential"});
  for (const std::size_t workers : {1, 2, 4, 8}) {
    const auto eng = engine_replay(lca, access, trace, workers);
    paranoia_violations += eng.stats.paranoia_violations;
    scaling.row().cell(workers).cell(eng.run.qps, 0).cell(eng.run.qps / seq.qps, 2);
  }
  scaling.print(std::cout, "hotspot(90/16) worker scaling");

  std::cout << "\nparanoia violations across all runs: " << paranoia_violations
            << (paranoia_violations == 0 ? " (Definition 2.3 holds as an SLO)"
                                         : "  <-- CONSISTENCY BUG")
            << "\n\nShape to check: >= 2x sequential at 4 workers on the skewed\n"
               "shapes, with request-level hit rates past 50% — a cached answer\n"
               "costs no oracle read at all, which is exactly what determinism\n"
               "per (seed, item) licenses.  Uniform traffic has nothing to cache\n"
               "or batch, so its gain is parallelism alone (bounded by physical\n"
               "cores); on the skewed shapes the engine's structure — batching +\n"
               "caching — wins even on a single core, because it eliminates\n"
               "oracle reads instead of merely overlapping them.\n";
  if (!answers_match) {
    std::cerr << "FAIL: engine answers differ from the sequential replay\n";
  }
  return paranoia_violations == 0 && answers_match ? 0 : 2;
}
