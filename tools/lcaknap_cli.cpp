// lcaknap — command-line front end for the library.
//
// Subcommands:
//   generate --family <name> --n <count> [--seed S] [--out FILE]
//       Write an instance of a built-in family to FILE (or stdout).
//   solve    --in FILE [--method exact|greedy|fptas] [--eps E]
//       Solve an instance offline and print the solution summary.
//   serve    --listen PORT (--in FILE | --tenants a=fileA,b=fileB) [...]
//       Serve membership queries over TCP (docs/NETWORKING.md).
//   eval     --in FILE [--eps E] [--seed S] [--replicas K] [--queries Q]
//       Run the consistency/quality harness and print the report.
//   snapshot <save|load|verify> --in FILE --snap PATH [--eps E] [--seed S]
//            [--tape T] [--warmup-threads K]
//       Warm-state persistence (docs/PERSISTENCE.md): `save` runs the
//       one-time warm-up and writes a versioned, CRC64-sealed snapshot of
//       (L(I~), EPS); `load` rehydrates it (fingerprint-verified against
//       the instance and flags); `verify` additionally re-runs the live
//       warm-up and proves digest equality (exit 2 on any mismatch).
//   serve-engine --in FILE [--eps E] [--seed S] [--tape T]
//            [--items "i,j,k" | --all | --shape uniform|zipf|hotspot
//             [--queries Q] [--zipf-s S] [--hot-frac F] [--hot-items K]
//             [--workload-seed S]]
//            [--workers W] [--queue-cap N] [--batch-max B] [--linger-us L]
//            [--cache-cap N] [--cache-shards S] [--paranoia-every N]
//            [--deadline-us D] [--chaos-plan SPEC] [--chaos-seed S]
//            [--retry-attempts N] [--backoff-us B] [--backoff-max-us M]
//            [--retry-budget R] [--breaker] [--degrade] [--warmup-threads K]
//            [--snapshot-dir DIR] [--instance-id ID]
//            [--certify --cert-dir DIR [--cert-segment-records N]]
//            [--updates FILE [--verify-epochs]]
//       Replay queries through the concurrent serving engine (bounded
//       queue -> micro-batcher -> worker pool -> sharded answer cache) and
//       print the throughput/outcome/cache report.  The trace is the listed
//       items (one "item i: yes|no" line each, in order), every item
//       (--all), or a generated workload.  --warmup-threads parallelizes the
//       one-time warm-up without changing any answer.  With
//       --chaos-plan, the oracle runs through the scripted fault layer
//       (chaos -> verifying -> retrying, armed after warm-up); --breaker
//       adds the circuit breaker, --degrade turns oracle outages into
//       warm-state kDegraded answers instead of kError.  Plan grammar:
//       "steady:200;outage:100:fail=1;brownout:150:fail=0.2,lat=100..400"
//       (durations ms, latencies us) — see docs/RESILIENCE.md.  With
//       --snapshot-dir, the warm state is hydrated through the StateStore:
//       a verified snapshot skips the warm-up entirely; a live warm-up is
//       persisted for the next process (docs/PERSISTENCE.md).  With
//       --certify, every evaluated answer appends a CRC-sealed certificate
//       record to an atomically-rotated log under --cert-dir
//       (docs/CERTIFICATES.md).  With --updates, the instance is epoched
//       (docs/DYNAMIC.md): the trace splits into one segment per epoch-log
//       batch plus one, and each batch applies between two segments.
//
// Certificate logs written by --certify are audited offline by the separate
// lcaknap_verify_log tool, which links no oracle code (docs/CERTIFICATES.md).
//
// Global flag: --metrics=prom|json dumps the metrics registry (Prometheus
// text exposition or JSON lines) to stdout when the command finishes — see
// docs/OBSERVABILITY.md for the family catalogue.
//
// Each command accepts only its own flags (tools/args.h): an unknown flag,
// a malformed number, a flag given without the flag it acts with, or two
// flags that do not combine is a usage error.
//
// Exit codes: 0 success, 1 usage error, 2 runtime failure.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/consistency.h"
#include "dyn/epoch_state.h"
#include "dyn/update.h"
#include "core/lca_kp.h"
#include "core/mapping_greedy.h"
#include "core/workload.h"
#include "fault/chaos.h"
#include "fault/circuit_breaker.h"
#include "fault/plan.h"
#include "fault/verifying.h"
#include "knapsack/generators.h"
#include "knapsack/solvers/fptas.h"
#include "knapsack/solvers/greedy.h"
#include "knapsack/solvers/solve.h"
#include "metrics/exporters.h"
#include "metrics/metrics.h"
#include "net/server.h"
#include "net/session.h"
#include "oracle/access.h"
#include "oracle/instrumented.h"
#include "oracle/retrying.h"
#include "serve/engine.h"
#include "store/snapshot.h"
#include "store/state_store.h"
#include "util/table.h"
#include "util/virtual_clock.h"

#include "args.h"

namespace {

using namespace lcaknap;
using tools::Args;
using tools::FlagSpec;

knapsack::Family parse_family(const std::string& name) {
  for (const auto family : knapsack::all_families()) {
    if (knapsack::family_name(family) == name) return family;
  }
  throw std::invalid_argument("unknown family: " + name +
                              " (try: uncorrelated, needle, subset_sum, ...)");
}

knapsack::Instance load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return knapsack::Instance::load(in);
}

int cmd_generate(const Args& args) {
  const auto family = parse_family(args.require("family"));
  const auto n = static_cast<std::size_t>(args.get_u64("n", 10'000));
  const auto seed = args.get_u64("seed", 1);
  const auto inst = knapsack::make_family(family, n, seed);
  if (const auto out = args.get("out")) {
    std::ofstream os(*out);
    if (!os) throw std::runtime_error("cannot write " + *out);
    inst.save(os);
    std::cout << "wrote " << inst.size() << " items (capacity "
              << inst.capacity() << ") to " << *out << "\n";
  } else {
    inst.save(std::cout);
  }
  return 0;
}

int cmd_solve(const Args& args) {
  const auto inst = load_instance(args.require("in"));
  const std::string method = args.get("method").value_or("greedy");
  knapsack::Solution solution;
  std::string note;
  if (method == "exact") {
    const auto result = knapsack::solve_exact(inst);
    solution = result.solution;
    note = result.proven_optimal ? "proven optimal" : "best found (budget hit)";
  } else if (method == "greedy") {
    solution = knapsack::greedy_half(inst).solution;
    note = "1/2-approximation guarantee";
  } else if (method == "fptas") {
    const double eps = args.get_double("eps", 0.1);
    solution = knapsack::fptas(inst, eps);
    note = "(1 - " + util::format_double(eps, 2) + ")-approximation guarantee";
  } else {
    throw std::invalid_argument("unknown --method: " + method);
  }
  util::Table table({"metric", "value"});
  table.row().cell("items selected").cell(solution.items.size());
  table.row().cell("value").cell(solution.value);
  table.row().cell("weight / capacity").cell(
      std::to_string(solution.weight) + " / " + std::to_string(inst.capacity()));
  table.row().cell("value share").cell(
      static_cast<double>(solution.value) / static_cast<double>(inst.total_profit()));
  table.row().cell("note").cell(note);
  table.print(std::cout, "solve (" + method + ")");
  return 0;
}

/// Splits `csv` ("i,j,k") into item indices below `n`.
std::vector<std::size_t> parse_items(const std::string& csv, std::size_t n) {
  std::vector<std::size_t> items;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const auto idx = tools::parse_u64("items", token);
    if (idx >= n) throw std::invalid_argument("item index out of range: " + token);
    items.push_back(static_cast<std::size_t>(idx));
  }
  if (items.empty()) throw std::invalid_argument("--items list is empty");
  return items;
}

/// `--eps` and the shared `--seed` (Lemma 4.9: replicas that share it
/// serve the same answers).
core::LcaKpConfig lca_config_from_flags(const Args& args) {
  core::LcaKpConfig config;
  config.eps = args.get_double("eps", 0.1);
  config.seed = args.get_u64("seed", 0xC0DE);
  return config;
}

/// The serving engine's configuration from the flags `serve --listen` and
/// `serve-engine` share.  `replay` adds serve-engine's own: the cache
/// paranoia audit (every 64th hit by default; the listener runs without
/// it) and certification.
serve::EngineConfig engine_config_from_flags(const Args& args, bool replay) {
  serve::EngineConfig config;
  config.workers = static_cast<std::size_t>(args.get_u64("workers", 4));
  config.queue_capacity =
      static_cast<std::size_t>(args.get_u64("queue-cap", 8'192));
  config.batcher.max_batch_size =
      static_cast<std::size_t>(args.get_u64("batch-max", 64));
  config.batcher.max_linger =
      std::chrono::microseconds(args.get_u64("linger-us", 200));
  config.cache.capacity =
      static_cast<std::size_t>(args.get_u64("cache-cap", 1 << 16));
  config.cache.shards = static_cast<std::size_t>(args.get_u64("cache-shards", 8));
  config.default_deadline =
      std::chrono::microseconds(args.get_u64("deadline-us", 0));
  config.warmup_tape_seed = args.get_u64("tape", 7);
  config.warmup_threads =
      static_cast<std::size_t>(args.get_u64("warmup-threads", 1));
  config.degrade = args.has("degrade");
  if (!replay) return config;
  config.cache.paranoia_every = args.get_u64("paranoia-every", 64);
  config.certify = args.has("certify");
  if (config.certify) {
    config.cert_dir = args.require("cert-dir");
    std::filesystem::create_directories(config.cert_dir);
    config.cert_segment_records = args.get_u64("cert-segment-records", 0);
  }
  return config;
}

/// `serve --listen PORT`: the network front door (docs/NETWORKING.md).
/// Hosts one or more tenants behind the length-prefixed binary protocol:
/// register -> warm (StateStore-hydrated, snapshot-first) -> arm optional
/// per-tenant chaos -> accept.  Runs until a gated shutdown frame arrives
/// (--allow-shutdown) or the process is signalled.
int cmd_serve(const Args& args) {
  if (!args.has("listen")) {
    throw std::invalid_argument(
        "serve needs --listen PORT; to answer queries in process, use "
        "serve-engine --in FILE (--items i,j,k | --all)");
  }
  auto& registry = metrics::global_registry();

  // Tenants: "--tenants a=fileA,b=fileB", or the single default tenant
  // "--in FILE" named by --instance-id.
  std::vector<std::pair<std::string, std::string>> specs;
  if (const auto csv = args.get("tenants")) {
    std::stringstream ss(*csv);
    std::string token;
    while (std::getline(ss, token, ',')) {
      const auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
        throw std::invalid_argument("--tenants entries are id=file, got: " +
                                    token);
      }
      specs.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    }
    if (specs.empty()) throw std::invalid_argument("--tenants list is empty");
  } else {
    specs.emplace_back(args.get("instance-id").value_or("default"),
                       args.require("in"));
  }
  const auto updates = args.get("updates");
  if (updates && specs.size() != 1) {
    throw std::invalid_argument("--updates requires exactly one tenant");
  }

  const auto lca_config = lca_config_from_flags(args);
  const auto engine_config = engine_config_from_flags(args, /*replay=*/false);
  const std::uint64_t tape_seed = engine_config.warmup_tape_seed;

  // Per-tenant oracle stacks; own everything the router borrows.
  struct TenantStack {
    explicit TenantStack(knapsack::Instance instance)
        : inst(std::move(instance)) {}
    knapsack::Instance inst;
    std::unique_ptr<oracle::MaterializedAccess> storage;
    std::unique_ptr<oracle::InstrumentedAccess> instrumented;
    std::optional<fault::ChaosAccess> chaos;
    std::unique_ptr<core::LcaKp> lca;
  };
  const auto chaos_tenant = args.get("chaos-tenant");
  std::vector<std::unique_ptr<TenantStack>> stacks;
  for (const auto& [id, path] : specs) {
    auto stack = std::make_unique<TenantStack>(load_instance(path));
    stack->storage = std::make_unique<oracle::MaterializedAccess>(stack->inst);
    stack->instrumented =
        std::make_unique<oracle::InstrumentedAccess>(*stack->storage, registry);
    const oracle::InstanceAccess* top = stack->instrumented.get();
    if (chaos_tenant && *chaos_tenant == id) {
      // Disarmed through warm-up (the paper's one-time phase is a
      // controlled environment); armed right before accept.
      stack->chaos.emplace(*top,
                           fault::parse_fault_plan(
                               args.require("chaos-plan"),
                               args.get_u64("chaos-seed", 0xC405)),
                           util::system_clock(), /*armed=*/false);
      top = &*stack->chaos;
    }
    stack->lca = std::make_unique<core::LcaKp>(*top, lca_config);
    stacks.push_back(std::move(stack));
  }

  // Live updates (docs/DYNAMIC.md): the tenant's EpochedState warms epoch 0
  // once, recording the trace its delta advances replay, and that run is
  // the tenant's warm state — the store never sees it.
  std::unique_ptr<dyn::EpochedState> dyn_state;
  std::vector<dyn::UpdateBatch> update_log;
  if (updates) {
    update_log = dyn::load_epoch_log(*updates);
    dyn::EpochConfig dyn_config;
    dyn_config.lca = lca_config;
    dyn_config.tape_seed = tape_seed;
    dyn_config.warmup_threads = engine_config.warmup_threads;
    dyn_state = std::make_unique<dyn::EpochedState>(stacks[0]->inst,
                                                    dyn_config, registry);
  }

  // The router keeps every tenant's engine, and with it the warm run, for
  // the life of the process, so the store holds one entry per tenant.
  store::StateStoreConfig store_config;
  store_config.capacity = specs.size();
  if (const auto dir = args.get("snapshot-dir")) {
    std::filesystem::create_directories(*dir);
    store_config.snapshot_dir = *dir;
  }
  store_config.warmup_threads = engine_config.warmup_threads;
  store::StateStore state_store(store_config, registry);

  net::TenantRouter router(state_store, registry);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    net::TenantConfig tenant;
    tenant.lca = stacks[i]->lca.get();
    tenant.engine = engine_config;
    if (dyn_state != nullptr) {
      tenant.engine.warm_state = dyn_state->current()->run;
    }
    tenant.tape_seed = tape_seed;
    tenant.max_inflight =
        static_cast<std::size_t>(args.get_u64("tenant-inflight", 1024));
    router.register_tenant(specs[i].first, tenant);
  }
  // Warm before accepting so the first remote query is never paying a
  // warm-up, then start the scripted storm (if any).
  router.warm_all();
  for (auto& stack : stacks) {
    if (stack->chaos) stack->chaos->arm();
  }

  net::ServerConfig server_config;
  server_config.port = tools::parse_port("listen", args.require("listen"));
  server_config.max_connections =
      static_cast<std::size_t>(args.get_u64("max-conns", 256));
  server_config.max_inflight_per_connection =
      static_cast<std::size_t>(args.get_u64("conn-inflight", 128));
  server_config.allow_shutdown = args.has("allow-shutdown");
  // Echoed on every response frame; the fleet orchestrator gives each
  // replica a distinct id so the checker can attribute answers.
  server_config.replica_id = args.get_u64("replica-id", 0);
  net::Server server(router, server_config, registry);

  // The machine-readable contract the loadgen and the two-process tests
  // parse; announce only once everything above is warm.
  std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;

  // The applier thread walks the epoch log, one batch per
  // --update-interval-ms tick, advancing the EpochedState and the tenant's
  // engine while the server keeps answering.  Requests in flight across an
  // advance legally finish under the old epoch; the response frame's
  // epoch_id says which epoch actually answered.  It starts once the server
  // is up, so no throw above can leave it unjoined.
  std::atomic<bool> applier_stop{false};
  std::thread applier;
  if (dyn_state != nullptr) {
    const auto interval =
        std::chrono::milliseconds(args.get_u64("update-interval-ms", 1'000));
    const std::string tenant_id = specs[0].first;
    applier = std::thread([&router, &dyn_state, &update_log, &applier_stop,
                           tenant_id, interval] {
      for (const auto& batch : update_log) {
        // Sleep in small slices so shutdown is not held up by a long tick.
        const auto wake = std::chrono::steady_clock::now() + interval;
        while (std::chrono::steady_clock::now() < wake) {
          if (applier_stop.load(std::memory_order_relaxed)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        serve::ServeEngine* engine = router.engine_mut(tenant_id);
        if (engine == nullptr) return;  // tenant failed; nothing to advance
        try {
          const auto report = dyn_state->advance(batch);
          const auto epoch = dyn_state->current();
          engine->advance_epoch(epoch->epoch_id, *epoch->lca, epoch->run,
                                epoch);
          std::cout << "epoch " << report.epoch_id << " installed ("
                    << (report.delta ? "delta" : "rewarm") << ", "
                    << report.mutations << " mutations, reason: "
                    << report.reason << ")" << std::endl;
        } catch (const std::exception& e) {
          std::cerr << "update apply failed: " << e.what() << "\n";
          return;  // leave the last good epoch serving
        }
      }
    });
  }

  server.wait_shutdown();
  server.stop();
  applier_stop.store(true, std::memory_order_relaxed);
  if (applier.joinable()) applier.join();
  router.drain();

  const auto stats = server.stats();
  const auto router_stats = router.stats();
  util::Table table({"metric", "value"});
  table.row().cell("tenants").cell(specs.size());
  {
    std::string warm;
    for (const auto& [id, path] : specs) {
      if (router.readiness(id) != net::TenantReadiness::kWarm) continue;
      if (!warm.empty()) warm += ", ";
      warm += id;
    }
    table.row().cell("warm tenants").cell(warm.empty() ? "(none)" : warm);
  }
  if (dyn_state != nullptr) {
    table.row().cell("updates applied (final epoch)")
        .cell(dyn_state->current_epoch_id());
  }
  table.row().cell("connections accepted / shed at capacity")
      .cell(std::to_string(stats.accepted) + " / " +
            std::to_string(stats.at_capacity));
  table.row().cell("frames in").cell(stats.frames_in);
  table.row().cell("decode errors").cell(stats.decode_errors);
  std::string by_status;
  for (std::size_t s = 0; s < stats.by_status.size(); ++s) {
    if (stats.by_status[s] == 0) continue;
    if (!by_status.empty()) by_status += ", ";
    by_status +=
        std::string(net::wire_status_name(static_cast<net::WireStatus>(s))) +
        "=" + std::to_string(stats.by_status[s]);
  }
  table.row().cell("responses by status").cell(
      by_status.empty() ? "(none)" : by_status);
  table.row().cell("wire conservation").cell(
      stats.frames_in == stats.responses_to_frames() ? "HOLDS" : "VIOLATED");
  table.row().cell("bytes in / out").cell(std::to_string(stats.bytes_in) +
                                          " / " +
                                          std::to_string(stats.bytes_out));
  table.row().cell("routed / completed").cell(
      std::to_string(router_stats.routed) + " / " +
      std::to_string(router_stats.completed));
  table.row().cell("quota shed / unknown tenant")
      .cell(std::to_string(router_stats.quota_shed) + " / " +
            std::to_string(router_stats.unknown_tenant));
  table.print(std::cout, "serve --listen");
  if (stats.frames_in != stats.responses_to_frames()) {
    std::cerr << "WIRE CONSERVATION VIOLATED: " << stats.frames_in
              << " frames in, " << stats.responses_to_frames()
              << " responses\n";
    return 2;
  }
  return 0;
}

int cmd_eval(const Args& args) {
  const auto inst = load_instance(args.require("in"));
  const auto config = lca_config_from_flags(args);
  core::ConsistencyConfig experiment;
  experiment.replicas = static_cast<std::size_t>(args.get_u64("replicas", 8));
  experiment.queries = static_cast<std::size_t>(args.get_u64("queries", 200));

  double opt_norm = 0.0;
  const auto exact = knapsack::solve_exact(inst);
  if (exact.proven_optimal) {
    opt_norm = static_cast<double>(exact.solution.value) /
               static_cast<double>(inst.total_profit());
  }
  const auto report = core::run_consistency(inst, config, experiment, opt_norm);
  util::Table table({"metric", "value"});
  table.row().cell("replicas x queries").cell(
      std::to_string(report.replicas) + " x " + std::to_string(report.queries));
  table.row().cell("pairwise agreement").cell(report.pairwise_agreement);
  table.row().cell("unanimous queries").cell(report.unanimous_fraction);
  table.row().cell("identical replica pairs").cell(report.identical_pair_fraction);
  table.row().cell("feasible runs").cell(
      std::to_string(report.feasible_runs) + "/" + std::to_string(report.replicas));
  table.row().cell("mean value (normalized)").cell(report.mean_norm_value);
  if (opt_norm > 0) table.row().cell("mean value / OPT").cell(report.mean_value_ratio);
  table.row().cell("mean samples per run").cell(report.mean_samples_per_run, 0);
  table.print(std::cout, "eval");
  return 0;
}

int cmd_snapshot(const std::string& action, const Args& args) {
  if (action != "save" && action != "load" && action != "verify") {
    throw std::invalid_argument("unknown snapshot action: " + action +
                                " (try: save, load, verify)");
  }
  const auto inst = load_instance(args.require("in"));
  const std::string snap_path = args.require("snap");
  auto config = lca_config_from_flags(args);
  config.warmup_threads =
      static_cast<std::size_t>(args.get_u64("warmup-threads", 1));
  const std::uint64_t tape_seed = args.get_u64("tape", 7);

  const oracle::MaterializedAccess storage(inst);
  const oracle::InstrumentedAccess access(storage, metrics::global_registry());
  const core::LcaKp lca(access, config);
  const auto fingerprint = store::fingerprint_of(lca, tape_seed);

  util::Table table({"metric", "value"});
  if (action == "save") {
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = lca.run_warmup(tape_seed);
    const double warmup_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    store::write_snapshot(snap_path, fingerprint, run);
    table.row().cell("digest").cell(std::to_string(core::run_digest(run)));
    table.row().cell("large items |L(I~)|").cell(run.index_large.size());
    table.row().cell("EPS thresholds").cell(run.thresholds_grid.size());
    table.row().cell("warm-up samples").cell(run.samples_used);
    table.row().cell("warm-up ms").cell(warmup_ms, 1);
    table.row().cell("snapshot bytes").cell(
        static_cast<std::uint64_t>(std::filesystem::file_size(snap_path)));
    table.row().cell("path").cell(snap_path);
    table.print(std::cout, "snapshot save");
    return 0;
  }

  // load / verify: rehydrate with full CRC + fingerprint verification; a
  // failure of either is a runtime error (exit 2) — a bad snapshot must
  // never look like success.
  const auto t0 = std::chrono::steady_clock::now();
  const auto run = store::read_snapshot(snap_path, &fingerprint);
  const double restore_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  const auto digest = core::run_digest(run);
  table.row().cell("digest").cell(std::to_string(digest));
  table.row().cell("large items |L(I~)|").cell(run.index_large.size());
  table.row().cell("EPS thresholds").cell(run.thresholds_grid.size());
  table.row().cell("restore ms").cell(restore_ms, 2);
  if (action == "load") {
    table.row().cell("fingerprint").cell("verified");
    table.print(std::cout, "snapshot load");
    return 0;
  }
  const auto live = lca.run_warmup(tape_seed);
  const auto live_digest = core::run_digest(live);
  table.row().cell("live warm-up digest").cell(std::to_string(live_digest));
  table.row().cell("digests").cell(digest == live_digest ? "MATCH" : "MISMATCH");
  table.print(std::cout, "snapshot verify");
  if (digest != live_digest) {
    std::cerr << "VERIFY FAILED: snapshot digest " << digest
              << " != live warm-up digest " << live_digest << "\n";
    return 2;
  }
  return 0;
}

core::WorkloadConfig::Shape parse_shape(const std::string& name) {
  if (name == "uniform") return core::WorkloadConfig::Shape::kUniform;
  if (name == "zipf") return core::WorkloadConfig::Shape::kZipf;
  if (name == "hotspot") return core::WorkloadConfig::Shape::kHotspot;
  throw std::invalid_argument("unknown --shape: " + name +
                              " (try: uniform, zipf, hotspot)");
}

/// serve-engine's trace: the listed items (--items), every item (--all), or
/// a generated workload over `n` items.
std::vector<std::size_t> replay_trace(const Args& args, std::size_t n) {
  if (args.has("items")) return parse_items(args.require("items"), n);
  if (args.has("all")) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }
  core::WorkloadConfig workload;
  workload.shape = parse_shape(args.get("shape").value_or("hotspot"));
  workload.queries = static_cast<std::size_t>(args.get_u64("queries", 100'000));
  workload.zipf_s = args.get_double("zipf-s", 1.1);
  workload.hotspot_fraction = args.get_double("hot-frac", 0.9);
  workload.hotspot_items = static_cast<std::size_t>(args.get_u64("hot-items", 16));
  workload.seed = args.get_u64("workload-seed", 1);
  return core::generate_workload(n, workload);
}

/// `serve-engine`: replay a trace through the concurrent serving engine.
/// With `--updates FILE` the instance is dynamic (docs/DYNAMIC.md): the
/// epoch log's batches apply at deterministic points — the trace splits
/// into `batches + 1` contiguous segments, each fully completing before the
/// next advance — so two runs of the same flags produce the same per-epoch
/// accounting.  Every advance goes through `dyn::EpochedState` (delta
/// warm-up where provably sound, full re-warm-up otherwise) and
/// `ServeEngine::advance_epoch`.  Exit 2 if any answer is attributed to an
/// epoch that was never installed, or the cache paranoia audit disagrees.
int cmd_serve_engine(const Args& args) {
  const bool epoched = args.has("updates");
  auto& registry = metrics::global_registry();
  const auto inst = load_instance(args.require("in"));
  // Draw indices from the base size: deletes tombstone in place (indices
  // stay valid) and inserts only append, so the trace is always in range.
  const auto trace = replay_trace(args, inst.size());
  const auto lca_config = lca_config_from_flags(args);
  auto engine_config = engine_config_from_flags(args, /*replay=*/true);

  const oracle::MaterializedAccess storage(inst);
  const oracle::InstrumentedAccess access(storage, registry);

  // Optional resilience stack: chaos -> verifying -> retrying [-> breaker].
  // The chaos layer starts disarmed so the engine's one-time warm-up sees a
  // healthy oracle; it is armed right before the replay begins.
  const oracle::InstanceAccess* top = &access;
  std::optional<fault::ChaosAccess> chaos;
  std::optional<fault::VerifyingAccess> verifying;
  std::optional<oracle::RetryingAccess> retrying;
  std::optional<fault::BreakerAccess> breaker;
  if (const auto plan_spec = args.get("chaos-plan")) {
    chaos.emplace(*top, fault::parse_fault_plan(
                            *plan_spec, args.get_u64("chaos-seed", 0xC405)),
                  util::system_clock(), /*armed=*/false);
    verifying.emplace(*chaos);
    oracle::RetryConfig retry_config;
    retry_config.max_attempts =
        static_cast<int>(args.get_u64("retry-attempts", 5));
    retry_config.base_backoff_us = args.get_u64("backoff-us", 200);
    retry_config.max_backoff_us =
        args.get_u64("backoff-max-us", std::max<std::uint64_t>(
                                           20'000, retry_config.base_backoff_us));
    retry_config.retry_budget_ratio = args.get_double("retry-budget", 0.1);
    retrying.emplace(*verifying, retry_config, util::system_clock());
    top = &*retrying;
  }
  if (args.has("breaker")) {
    breaker.emplace(*top, fault::CircuitBreakerConfig{});
    top = &*breaker;
  }
  const core::LcaKp lca(*top, lca_config);

  // What the engine serves first: the static instance, or epoch 0 of the
  // epoched one.  Warm-state hydration through the StateStore when a
  // snapshot directory is given: a verified snapshot skips the warm-up; a
  // live warm-up is persisted so the *next* process restores instead of
  // re-warming.  This runs before the chaos layer is armed, like the
  // engine's own warm-up.
  const core::LcaKp* first_lca = &lca;
  std::vector<dyn::UpdateBatch> log;
  std::optional<dyn::EpochedState> epochs;
  std::shared_ptr<const dyn::EpochedState::Epoch> epoch0;  // owns first_lca
  std::string warm_source = "live warm-up";
  if (epoched) {
    log = dyn::load_epoch_log(args.require("updates"));
    if (log.empty()) throw std::invalid_argument("epoch log has no batches");
    dyn::EpochConfig dyn_config;
    dyn_config.lca = lca_config;
    dyn_config.tape_seed = engine_config.warmup_tape_seed;
    dyn_config.warmup_threads = engine_config.warmup_threads;
    dyn_config.verify_digest = args.has("verify-epochs");
    epochs.emplace(inst, dyn_config, registry);
    epoch0 = epochs->current();
    first_lca = epoch0->lca.get();
    engine_config.warm_state = epoch0->run;  // already warmed (and traced)
  } else if (const auto dir = args.get("snapshot-dir")) {
    std::filesystem::create_directories(*dir);
    store::StateStoreConfig store_config;
    store_config.snapshot_dir = *dir;
    store_config.capacity = 4;
    store_config.warmup_threads = engine_config.warmup_threads;
    store::StateStore state_store(store_config);
    const std::string id = args.get("instance-id").value_or("default");
    engine_config.warm_state =
        state_store.get(id, lca, engine_config.warmup_tape_seed);
    warm_source = state_store.stats().snapshot_hydrations > 0
                      ? "restored from snapshot"
                      : "live warm-up (persisted)";
  }

  serve::ServeEngine engine(*first_lca, engine_config);
  if (chaos) chaos->arm();  // warm-up done: start the scripted storm

  // A static instance replays as one segment; an epoch log adds one per
  // batch, and batch k applies after segment k completes.
  const std::size_t segments = log.size() + 1;
  const std::size_t per_segment =
      std::max<std::size_t>(1, trace.size() / segments);
  const bool print_items = args.has("items");
  std::map<std::uint64_t, std::uint64_t> ok_by_epoch;
  std::size_t delta_advances = 0;
  std::size_t yes = 0;
  std::size_t from_cache = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t at = 0;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    const std::size_t end =
        seg + 1 == segments ? trace.size()
                            : std::min(trace.size(), at + per_segment);
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(end - at);
    for (std::size_t q = at; q < end; ++q) futures.push_back(engine.submit(trace[q]));
    for (std::size_t k = 0; k < futures.size(); ++k) {
      const auto response = futures[k].get();
      const bool ok = response.outcome == serve::Outcome::kOk;
      const bool answered = ok || response.outcome == serve::Outcome::kDegraded;
      yes += answered && response.answer ? 1 : 0;
      from_cache += response.cache_hit ? 1 : 0;
      if (ok) ++ok_by_epoch[response.epoch_id];
      if (print_items) {
        std::cout << "item " << trace[at + k] << ": ";
        if (answered) {
          std::cout << (response.answer ? "yes" : "no") << (ok ? "" : " (degraded)");
        } else {
          std::cout << serve::outcome_name(response.outcome);
        }
        std::cout << "\n";
      }
    }
    at = end;
    if (seg + 1 < segments) {
      const auto report = epochs->advance(log[seg]);
      const auto epoch = epochs->current();
      engine.advance_epoch(epoch->epoch_id, *epoch->lca, epoch->run, epoch);
      delta_advances += report.delta ? 1 : 0;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  engine.drain();

  const auto stats = engine.stats();
  util::Table table({"metric", "value"});
  table.row().cell("requests").cell(stats.submitted);
  table.row().cell("ok / overloaded / deadline / degraded / error")
      .cell(std::to_string(stats.ok) + " / " + std::to_string(stats.overloaded) +
            " / " + std::to_string(stats.deadline_exceeded) + " / " +
            std::to_string(stats.degraded) + " / " +
            std::to_string(stats.errors));
  table.row().cell("yes answers").cell(yes);
  table.row().cell("throughput (requests/s)").cell(
      elapsed_s > 0 ? static_cast<double>(stats.submitted) / elapsed_s : 0.0, 0);
  // Two views of the cache: per lookup (one lookup serves a whole batch)
  // and per request (the traffic fraction the cache actually absorbed).
  const auto lookups = stats.cache_hits + stats.cache_misses;
  table.row().cell("cache hit rate (per lookup)").cell(
      lookups > 0 ? static_cast<double>(stats.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0);
  table.row().cell("requests served from cache").cell(
      stats.submitted > 0 ? static_cast<double>(from_cache) /
                                static_cast<double>(stats.submitted)
                          : 0.0);
  table.row().cell("cache evictions").cell(stats.cache_evictions);
  table.row().cell("mean batch size").cell(
      stats.batches > 0 ? static_cast<double>(stats.batched_requests) /
                              static_cast<double>(stats.batches)
                        : 0.0);
  table.row().cell("paranoia checks / violations")
      .cell(std::to_string(stats.paranoia_checks) + " / " +
            std::to_string(stats.paranoia_violations));
  table.row().cell("warm-up samples").cell(engine.run().samples_used);
  if (args.has("snapshot-dir")) {
    table.row().cell("warm state").cell(warm_source);
    table.row().cell("warm state digest").cell(
        std::to_string(core::run_digest(engine.run())));
  }
  if (chaos) {
    table.row().cell("faults injected (failstop/latency/corruption)")
        .cell(std::to_string(chaos->failstops_injected()) + " / " +
              std::to_string(chaos->latencies_injected()) + " / " +
              std::to_string(chaos->corruptions_injected()));
    table.row().cell("corruptions detected").cell(verifying->corruptions_detected());
    table.row().cell("retries / budget-exhausted")
        .cell(std::to_string(retrying->retries_performed()) + " / " +
              std::to_string(retrying->budget_exhausted()));
  }
  if (breaker) {
    const auto counters = breaker->breaker().counters();
    table.row().cell("breaker trips / fast-fails")
        .cell(std::to_string(counters.to_open) + " / " +
              std::to_string(counters.rejected));
  }
  if (engine_config.certify) {
    table.row().cell("certificates written / skipped")
        .cell(std::to_string(stats.cert_records) + " / " +
              std::to_string(stats.cert_skipped));
    table.row().cell("certificate segments sealed").cell(stats.cert_segments);
    table.row().cell("certificate log bytes").cell(stats.cert_bytes);
    table.row().cell("certificate dir").cell(engine_config.cert_dir);
  }
  if (epochs) {
    table.row().cell("epochs applied (delta / rewarm)")
        .cell(std::to_string(log.size()) + " (" +
              std::to_string(delta_advances) + " / " +
              std::to_string(log.size() - delta_advances) + ")");
    std::string by_epoch;
    for (const auto& [epoch_id, count] : ok_by_epoch) {
      if (!by_epoch.empty()) by_epoch += ", ";
      by_epoch += "e" + std::to_string(epoch_id) + "=" + std::to_string(count);
    }
    table.row().cell("ok answers by served epoch").cell(
        by_epoch.empty() ? "(none)" : by_epoch);
    table.row().cell("cache invalidations").cell(stats.cache_invalidations);
    table.row().cell("final epoch").cell(stats.epoch);
    table.row().cell("final warm-state digest").cell(
        std::to_string(core::run_digest(*epochs->current()->run)));
  }
  const std::string trace_name = args.has("items") ? "items"
                                 : args.has("all") ? "all"
                                                   : args.get("shape").value_or("hotspot");
  table.print(std::cout, "serve-engine (" + trace_name + ", " +
                             std::to_string(engine_config.workers) + " workers" +
                             (epochs ? ", " + std::to_string(log.size()) +
                                           " update batches"
                                     : std::string()) +
                             ")");
  // Every served epoch must be one that was actually installed: 0..final.
  for (const auto& [epoch_id, count] : ok_by_epoch) {
    if (epoch_id > stats.epoch) {
      std::cerr << "EPOCH ATTRIBUTION VIOLATION: " << count
                << " answers claim epoch " << epoch_id
                << " > final epoch " << stats.epoch << "\n";
      return 2;
    }
  }
  if (stats.paranoia_violations > 0) {
    std::cerr << "CONSISTENCY VIOLATION: cached answers disagreed with "
                 "re-evaluation\n";
    return 2;
  }
  return 0;
}

void usage() {
  std::cerr <<
      "usage: lcaknap_cli <command> [flags] [--metrics=prom|json]\n"
      "  generate --family NAME --n N [--seed S] [--out FILE]\n"
      "  solve    --in FILE [--method exact|greedy|fptas] [--eps E]\n"
      "  serve    --listen PORT (--in FILE | --tenants a=fileA,b=fileB)\n"
      "           [--instance-id ID] [--eps E] [--seed S] [--tape T]\n"
      "           [--workers W] [--queue-cap N] [--batch-max B] [--linger-us L]\n"
      "           [--cache-cap N] [--cache-shards S] [--deadline-us D]\n"
      "           [--warmup-threads K] [--max-conns N] [--conn-inflight N]\n"
      "           [--tenant-inflight N] [--snapshot-dir DIR] [--degrade]\n"
      "           [--chaos-tenant ID --chaos-plan SPEC] [--chaos-seed S]\n"
      "           [--allow-shutdown] [--replica-id N]\n"
      "           [--updates FILE] [--update-interval-ms M]\n"
      "  eval     --in FILE [--eps E] [--seed S] [--replicas K] [--queries Q]\n"
      "  snapshot <save|load|verify> --in FILE --snap PATH [--eps E] [--seed S]\n"
      "           [--tape T] [--warmup-threads K]\n"
      "  serve-engine --in FILE [--eps E] [--seed S] [--tape T]\n"
      "           [--items i,j,k | --all | [--shape uniform|zipf|hotspot]\n"
      "            [--queries Q] [--zipf-s S] [--hot-frac F] [--hot-items K]\n"
      "            [--workload-seed S]]\n"
      "           [--workers W] [--queue-cap N] [--batch-max B] [--linger-us L]\n"
      "           [--cache-cap N] [--cache-shards S] [--paranoia-every N]\n"
      "           [--deadline-us D] [--degrade] [--warmup-threads K]\n"
      "           [--chaos-plan SPEC] [--chaos-seed S] [--retry-attempts N]\n"
      "           [--backoff-us B] [--backoff-max-us M] [--retry-budget R]\n"
      "           [--breaker] [--snapshot-dir DIR] [--instance-id ID]\n"
      "           [--certify --cert-dir DIR [--cert-segment-records N]]\n"
      "           [--updates FILE] [--verify-epochs]\n"
      "Flags take a value as --flag V or --flag=V; integers are decimal or 0x\n"
      "hex.  A flag the command does not take, a flag without the flag it\n"
      "acts with (--cert-dir without --certify, --chaos-seed without\n"
      "--chaos-plan, ...), and two flags that do not combine are usage\n"
      "errors (exit 1).\n"
      "serve-engine replays a trace through the concurrent serving engine:\n"
      "the --items list (one 'item i: yes|no' line each, in order), --all\n"
      "items, or a generated workload (--shape, seeded by --workload-seed).\n"
      "--warmup-threads parallelizes the one-time warm-up run without\n"
      "changing any served answer (deterministic sharded sampling).\n"
      "snapshot save writes a versioned, CRC64-sealed warm-state snapshot;\n"
      "load rehydrates it (fingerprint-verified); verify re-runs the live\n"
      "warm-up (--tape selects its randomness tape) and proves digest\n"
      "equality, exit 2 on mismatch (see docs/PERSISTENCE.md).\n"
      "--snapshot-dir hydrates serve-engine's warm state through the\n"
      "StateStore: a verified snapshot named by --instance-id skips the\n"
      "warm-up; a live warm-up is persisted for the next process.\n"
      "--certify emits one CRC-sealed certificate record per evaluated\n"
      "answer into an atomically-rotated log under --cert-dir (rotating every\n"
      "--cert-segment-records records); the lcaknap_verify_log tool replays\n"
      "such a log against the warm-state snapshot offline (zero oracle\n"
      "access; see docs/CERTIFICATES.md).\n"
      "--chaos-plan scripts oracle faults during the replay, e.g.\n"
      "  \"steady:200;outage:100:fail=1;brownout:150:fail=0.2,lat=100..400\"\n"
      "(durations ms, latencies us; see docs/RESILIENCE.md).\n"
      "--listen turns serve into a TCP front-end on 127.0.0.1 (port 0 picks\n"
      "an ephemeral port, announced as 'listening on 127.0.0.1:PORT'): the\n"
      "length-prefixed binary protocol of docs/NETWORKING.md, multi-tenant\n"
      "routing by instance id through the StateStore, per-connection and\n"
      "per-tenant backpressure shedding kOverloaded, and an optional\n"
      "per-tenant chaos plan armed after warm-up.  --allow-shutdown honours\n"
      "the gated remote-shutdown frame (tests; never production).\n"
      "--replica-id stamps every response frame with this replica's id so a\n"
      "fleet client or the consistency checker can attribute answers\n"
      "(docs/FLEET.md).  Drive it with tools/lcaknap_loadgen, or run a whole\n"
      "replica fleet with tools/lcaknap_fleet.\n"
      "--updates FILE applies a CRC-sealed epoch log of instance mutations\n"
      "(insert/delete/profit/weight batches; docs/DYNAMIC.md) while serving:\n"
      "serve-engine splits the replay into one segment per batch and\n"
      "advances deterministically between segments (--verify-epochs also\n"
      "proves every delta warm-up digest-equal to a fresh one, exit 2 on\n"
      "mismatch; --chaos-plan, --breaker, --snapshot-dir and --certify do\n"
      "not combine with it); serve --listen warms epoch 0 once and applies\n"
      "one batch every --update-interval-ms on a live applier thread\n"
      "(--snapshot-dir and --chaos-tenant do not combine with it).  Each\n"
      "advance takes the delta warm-up when provably sound and the full\n"
      "re-warm-up otherwise; answers carry the epoch that served them.\n"
      "--metrics dumps the metric registry to stdout at exit (Prometheus\n"
      "text exposition or JSON lines); see docs/OBSERVABILITY.md.\n";
}

/// Flags both serving commands take: the instance, lca_config_from_flags'
/// and engine_config_from_flags' shared flags, snapshots, chaos and updates.
const std::vector<std::string> kServingFlags = {
    "in",          "eps",          "seed",         "tape",
    "workers",     "queue-cap",    "batch-max",    "linger-us",
    "cache-cap",   "cache-shards", "deadline-us",  "warmup-threads",
    "snapshot-dir", "instance-id", "chaos-plan",   "chaos-seed",
    "updates"};

/// The flags `command` accepts and the pairs among them, or nullopt for an
/// unknown command.  Every command also takes --metrics.
std::optional<FlagSpec> command_flags(const std::string& command) {
  FlagSpec spec;
  if (command == "generate") {
    spec.values = {"family", "n", "seed", "out"};
  } else if (command == "solve") {
    spec.values = {"in", "method", "eps"};
  } else if (command == "eval") {
    spec.values = {"in", "eps", "seed", "replicas", "queries"};
  } else if (command == "snapshot") {
    spec.values = {"in", "snap", "eps", "seed", "tape", "warmup-threads"};
  } else if (command == "serve") {
    spec.values = kServingFlags;
    spec.values.insert(spec.values.end(),
                       {"listen", "tenants", "max-conns", "conn-inflight",
                        "tenant-inflight", "chaos-tenant", "replica-id",
                        "update-interval-ms"});
    spec.switches = {"degrade", "allow-shutdown"};
    spec.needs = {{"update-interval-ms", "updates"},
                  {"chaos-seed", "chaos-plan"},
                  {"chaos-plan", "chaos-tenant"},
                  {"chaos-tenant", "chaos-plan"}};
    // --tenants names every tenant and its instance.  An epoched tenant
    // warms epoch 0 through its EpochedState, which records the delta trace
    // a snapshot does not hold.
    spec.conflicts = {{"tenants", "in"},
                      {"tenants", "instance-id"},
                      {"updates", "snapshot-dir"},
                      {"updates", "chaos-tenant"}};
  } else if (command == "serve-engine") {
    spec.values = kServingFlags;
    spec.values.insert(spec.values.end(),
                       {"items", "shape", "queries", "zipf-s", "hot-frac",
                        "hot-items", "workload-seed", "paranoia-every",
                        "retry-attempts", "backoff-us", "backoff-max-us",
                        "retry-budget", "cert-dir", "cert-segment-records"});
    spec.switches = {"all", "degrade", "breaker", "certify", "verify-epochs"};
    spec.needs = {{"cert-dir", "certify"},
                  {"cert-segment-records", "certify"},
                  {"verify-epochs", "updates"},
                  {"instance-id", "snapshot-dir"}};
    for (const char* retry : {"chaos-seed", "retry-attempts", "backoff-us",
                              "backoff-max-us", "retry-budget"}) {
      spec.needs.emplace_back(retry, "chaos-plan");
    }
    // An epoched instance has no single oracle stack to wrap, snapshot or
    // certify against.
    spec.conflicts = {{"updates", "chaos-plan"},
                      {"updates", "breaker"},
                      {"updates", "snapshot-dir"},
                      {"updates", "certify"},
                      {"items", "all"}};
    // --items and --all replace the generated trace its shape flags make.
    for (const char* listed : {"items", "all"}) {
      for (const char* generator : {"shape", "queries", "zipf-s", "hot-frac",
                                    "hot-items", "workload-seed"}) {
        spec.conflicts.emplace_back(listed, generator);
      }
    }
  } else {
    return std::nullopt;
  }
  spec.values.push_back("metrics");
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const auto spec = argc < 2 ? std::nullopt : command_flags(argv[1]);
  if (!spec) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    // `snapshot <action> --flags...` carries a positional action word at
    // argv[2]; the flag parser starts after it.
    const bool positional_action = (command == "snapshot");
    if (positional_action &&
        (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0)) {
      throw std::invalid_argument("snapshot needs an action: save|load|verify");
    }
    const Args args(argc, argv, positional_action ? 3 : 2, *spec);
    // Resolve the exporter up front so a bad --metrics value is a usage
    // error before any work happens.
    std::optional<metrics::ExportFormat> metrics_format;
    if (const auto format = args.get("metrics")) {
      metrics_format = metrics::parse_export_format(*format);
    }
    int rc = 1;
    if (command == "generate") {
      rc = cmd_generate(args);
    } else if (command == "solve") {
      rc = cmd_solve(args);
    } else if (command == "serve") {
      rc = cmd_serve(args);
    } else if (command == "eval") {
      rc = cmd_eval(args);
    } else if (command == "serve-engine") {
      rc = cmd_serve_engine(args);
    } else if (command == "snapshot") {
      rc = cmd_snapshot(argv[2], args);
    }
    if (metrics_format) {
      metrics::write_registry(metrics::global_registry(), *metrics_format, std::cout);
    }
    return rc;
  } catch (const std::invalid_argument& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
