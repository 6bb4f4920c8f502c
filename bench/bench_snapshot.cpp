// E18 — warm-state snapshot restore vs live warm-up.
//
// The claim of docs/PERSISTENCE.md, measured: once a Theorem 4.1 warm-up has
// been paid and persisted, a process restart restores `(L(I~), EPS)` from the
// snapshot at a tiny fraction of the warm-up cost, *and* the restored engine
// is answer-for-answer identical to one that re-ran the warm-up.
//
// Four tables:
//  1. restore vs warm-up wall time (median reps) with the speedup factor —
//     prediction: restore >= 10x faster than the live warm-up (hard failure
//     when violated: exit 1);
//  2. fidelity: run_digest of saved / restored / fresh-live state must agree
//     exactly (hard failure), plus snapshot size on disk;
//  3. engine equivalence: a ServeEngine warmed live and one warmed from the
//     snapshot answer a shared query stream — any answer mismatch is a hard
//     failure;
//  4. StateStore hydration: a cold store (first process) pays the warm-up and
//     persists; a second store (the restart) hydrates from the snapshot;
//     reported via its store_* stats.
//
// Flags: --smoke shrinks every budget for CI; --json PATH writes a one-object
// JSON summary (default BENCH_snapshot.json when --json has no value).

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "store/snapshot.h"
#include "store/state_store.h"
#include "util/table.h"

#include "timing.h"

namespace {

using Clock = std::chrono::steady_clock;

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
                                                          : "BENCH_snapshot.json";
    } else {
      std::cerr << "usage: bench_snapshot [--smoke] [--json [PATH]]\n";
      return 2;
    }
  }

  std::cout << "E18: warm-state snapshot restore vs live warm-up"
            << (smoke ? " [smoke]" : "") << "\n\n";

  const auto dir = std::filesystem::temp_directory_path() / "lcaknap_bench_snapshot";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string snap_path = (dir / "bench.snap").string();

  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated,
                                          smoke ? 20'000 : 100'000, 3);
  const oracle::MaterializedAccess access(inst);
  core::LcaKpConfig config;
  config.eps = 0.2;
  config.seed = 0xE18;
  config.quantile_samples = smoke ? 400'000 : 2'000'000;
  const core::LcaKp lca(access, config);
  constexpr std::uint64_t kTape = 7;
  const auto fingerprint = store::fingerprint_of(lca, kTape);

  bool ok = true;

  // --- 1. Restore vs warm-up wall time. ------------------------------------
  const auto run = lca.run_warmup(kTape);
  store::write_snapshot(snap_path, fingerprint, run);
  const int reps = smoke ? 3 : 5;
  const double warmup_ms = bench::median_ms(reps, [&] { (void)lca.run_warmup(kTape); });
  const double restore_ms =
      bench::median_ms(reps, [&] { (void)store::read_snapshot(snap_path, &fingerprint); });
  const double speedup = warmup_ms / restore_ms;
  {
    util::Table table({"path", "median ms", "speedup"});
    table.row().cell("live warm-up").cell(warmup_ms, 2).cell(1.0, 2);
    table.row().cell("snapshot restore").cell(restore_ms, 3).cell(speedup, 1);
    table.print(std::cout, "restart cost: snapshot restore vs live warm-up");
    std::cout << "\n";
    if (speedup < 10.0) {
      std::cerr << "FAIL: snapshot restore speedup " << speedup
                << "x below the predicted 10x\n";
      ok = false;
    }
  }

  // --- 2. Fidelity: digests agree, bytes are canonical. --------------------
  const auto restored = store::read_snapshot(snap_path, &fingerprint);
  const std::uint64_t digest_saved = core::run_digest(run);
  const std::uint64_t digest_restored = core::run_digest(restored);
  const std::uint64_t digest_fresh = core::run_digest(lca.run_warmup(kTape));
  const auto snapshot_bytes = std::filesystem::file_size(snap_path);
  {
    util::Table table({"state", "digest", "matches saved"});
    table.row().cell("saved (live warm-up)").cell(std::to_string(digest_saved))
        .cell("-");
    table.row().cell("restored from snapshot")
        .cell(std::to_string(digest_restored))
        .cell(digest_restored == digest_saved ? "yes" : "NO");
    table.row().cell("fresh live warm-up").cell(std::to_string(digest_fresh))
        .cell(digest_fresh == digest_saved ? "yes" : "NO");
    table.print(std::cout, "fidelity: run_digest equality (snapshot = " +
                               std::to_string(snapshot_bytes) + " bytes)");
    std::cout << "\n";
    if (digest_restored != digest_saved || digest_fresh != digest_saved) {
      std::cerr << "FAIL: restored state is not byte-identical to the live "
                   "warm-up\n";
      ok = false;
    }
  }

  // --- 3. Engine equivalence over a query stream. --------------------------
  std::size_t mismatches = 0;
  std::size_t queried = 0;
  {
    serve::EngineConfig live_config;
    live_config.workers = 2;
    live_config.warmup_tape_seed = kTape;
    live_config.warmup_threads = 1;
    metrics::Registry live_registry;
    serve::ServeEngine live(lca, live_config, live_registry);

    auto restored_config = live_config;
    restored_config.warm_state =
        std::make_shared<const core::LcaKpRun>(restored);
    metrics::Registry restored_registry;
    serve::ServeEngine from_snapshot(lca, restored_config, restored_registry);

    const std::size_t stride = smoke ? 97 : 31;
    for (std::size_t item = 0; item < inst.size(); item += stride) {
      const auto a = live.submit_wait(item);
      const auto b = from_snapshot.submit_wait(item);
      ++queried;
      if (a.outcome != serve::Outcome::kOk ||
          b.outcome != serve::Outcome::kOk || a.answer != b.answer) {
        ++mismatches;
      }
    }
    util::Table table({"metric", "value"});
    table.row().cell("queries compared").cell(queried);
    table.row().cell("answer mismatches").cell(mismatches);
    table.print(std::cout, "engine equivalence: live vs restored warm state");
    std::cout << "\n";
    if (mismatches != 0) {
      std::cerr << "FAIL: restored engine disagreed with the live engine\n";
      ok = false;
    }
  }

  // --- 4. StateStore hydration across "processes". -------------------------
  std::uint64_t cold_warmups = 0;
  std::uint64_t restart_hydrations = 0;
  {
    const std::string store_dir = (dir / "store").string();
    std::filesystem::create_directories(store_dir);
    metrics::Registry cold_registry;
    store::StateStore cold({.capacity = 4, .snapshot_dir = store_dir},
                           cold_registry);
    const auto t0 = Clock::now();
    (void)cold.get("tenant", lca, kTape);
    const double cold_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    cold_warmups = cold.stats().live_warmups;

    metrics::Registry restart_registry;
    store::StateStore restart({.capacity = 4, .snapshot_dir = store_dir},
                              restart_registry);
    const auto t1 = Clock::now();
    (void)restart.get("tenant", lca, kTape);
    const double restart_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
    restart_hydrations = restart.stats().snapshot_hydrations;

    util::Table table({"process", "path", "ms"});
    table.row().cell("first (cold)")
        .cell(cold_warmups == 1 ? "live warm-up, persisted" : "UNEXPECTED")
        .cell(cold_ms, 2);
    table.row().cell("restart")
        .cell(restart_hydrations == 1 ? "restored from snapshot" : "UNEXPECTED")
        .cell(restart_ms, 3);
    table.print(std::cout, "StateStore: cold process vs restart");
    if (cold_warmups != 1 || restart_hydrations != 1) {
      std::cerr << "FAIL: StateStore did not take the expected hydration "
                   "paths\n";
      ok = false;
    }
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"snapshot\",\n"
       << "  \"experiment\": \"E18\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"warmup_ms\": " << warmup_ms << ",\n"
       << "  \"restore_ms\": " << restore_ms << ",\n"
       << "  \"restore_speedup\": " << speedup << ",\n"
       << "  \"snapshot_bytes\": " << snapshot_bytes << ",\n"
       << "  \"digest_equal\": "
       << (digest_restored == digest_saved && digest_fresh == digest_saved
               ? "true"
               : "false")
       << ",\n"
       << "  \"engine_queries_compared\": " << queried << ",\n"
       << "  \"engine_answer_mismatches\": " << mismatches << ",\n"
       << "  \"pass\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }

  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
