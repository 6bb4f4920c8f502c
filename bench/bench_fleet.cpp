// E21 — replica fleet: failover availability and snapshot-shipped bootstrap.
//
// The claims of docs/FLEET.md, measured over real loopback sockets and real
// snapshot files.  Two falsifiable predictions:
//
//  1. **Failover availability.**  Kill a 2-group fleet's home replica a
//     third of the way through a query stream: the fleet must serve every
//     remaining query via failover (availability 1.0), and every failed-over
//     answer must equal the warm run's answer bit-for-bit (Lemma 4.9 — the
//     hop is *correct*, not merely available).  The single-replica baseline
//     run under the identical kill schedule must lose queries — otherwise
//     the comparison is vacuous and the bench fails itself.
//  2. **Bootstrap-to-warm <= 10x a local snapshot restore.**  Shipping a
//     snapshot to a joining replica (copy + rename + fingerprint-checked
//     hydration) must cost at most 10x hydrating the same snapshot
//     in place.  Both are best-of-5 to keep filesystem jitter honest; the
//     live warm-up cost is reported alongside as the price bootstrap avoids.
//
// Flags: --smoke shrinks every budget for CI; --json PATH writes a one-object
// JSON summary (default BENCH_fleet.json when --json has no value).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/lca_kp.h"
#include "fleet/bootstrap.h"
#include "fleet/client.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "net/server.h"
#include "net/session.h"
#include "oracle/access.h"
#include "store/state_store.h"
#include "util/table.h"
#include "util/virtual_clock.h"

namespace {

using namespace lcaknap;
using Clock = std::chrono::steady_clock;

/// One in-process replica: store + router + server, replica_id stamped on
/// every response (the same stand-in tests/fleet/test_fleet_client.cpp uses).
struct Replica {
  metrics::Registry registry;
  store::StateStore store;
  net::TenantRouter router;
  std::unique_ptr<net::Server> server;

  Replica(const core::LcaKp* lca, std::uint64_t replica_id)
      : store({.capacity = 4}, registry), router(store, registry) {
    net::TenantConfig tenant;
    tenant.lca = lca;
    tenant.engine.workers = 2;
    tenant.engine.cache.capacity = 1'024;
    router.register_tenant("bench", tenant);
    router.warm_all();
    net::ServerConfig config;
    config.replica_id = replica_id;
    server = std::make_unique<net::Server>(router, config, registry);
  }
  ~Replica() {
    if (server) server->stop();
    router.drain();
  }
};

struct AvailabilityResult {
  std::uint64_t offered = 0;
  std::uint64_t served = 0;       ///< ok + failed_over + degraded
  std::uint64_t failed_over = 0;
  std::uint64_t mismatches = 0;   ///< served answers != the warm run's answer
  bool conserved = false;
};

/// Offers `queries` fleet queries and kills the tenant's home replica a
/// third of the way through.  `siblings` controls whether a failover
/// candidate exists (the fleet) or not (the single-replica baseline).
AvailabilityResult run_kill_drill(const core::LcaKp& lca, bool siblings,
                                  std::uint64_t queries,
                                  std::uint64_t items_max) {
  Replica a(&lca, 1);
  std::unique_ptr<Replica> b;
  fleet::FleetClientConfig config;
  config.replicas = {{.replica_id = 1, .group = 0, .port = a.server->port()}};
  if (siblings) {
    b = std::make_unique<Replica>(&lca, 2);
    config.replicas.push_back(
        {.replica_id = 2, .group = 1, .port = b->server->port()});
  }
  metrics::Registry registry;
  fleet::FleetClient client(config, util::system_clock(), registry);

  // The answers the whole fleet must agree on (every replica warmed the
  // same (instance, seed, tape), so one run speaks for all).
  const auto& run = a.router.engine("bench")->run();

  const auto home = client.map().group_of("bench");
  AvailabilityResult result;
  for (std::uint64_t q = 0; q < queries; ++q) {
    if (q == queries / 3) {
      // SIGKILL stand-in: the home replica's port goes dead mid-stream.
      (home == 0 || !siblings ? a : *b).server->stop();
    }
    const auto item = (q * 1'000'003ull) % items_max;
    const auto fleet_result = client.query("bench", item);
    ++result.offered;
    switch (fleet_result.disposition) {
      case fleet::Disposition::kOk:
      case fleet::Disposition::kFailedOver:
      case fleet::Disposition::kDegraded:
        ++result.served;
        if (fleet_result.answer != lca.answer_from(run, item)) {
          ++result.mismatches;
        }
        break;
      default:
        break;
    }
    if (fleet_result.disposition == fleet::Disposition::kFailedOver) {
      ++result.failed_over;
    }
  }
  result.conserved = client.stats().conserved();
  return result;
}

/// Wall time of `body` in microseconds.
template <typename F>
double timed_us(F&& body) {
  const auto t0 = Clock::now();
  body();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                          : "BENCH_fleet.json";
    } else {
      std::cerr << "usage: bench_fleet [--smoke] [--json [PATH]]\n";
      return 2;
    }
  }

  std::cout << "E21: replica fleet — failover availability and "
               "snapshot-shipped bootstrap"
            << (smoke ? " [smoke]" : "") << "\n\n";

  const std::uint64_t kItems = smoke ? 2'000 : 10'000;
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle,
                                          static_cast<std::size_t>(kItems), 21);
  const oracle::MaterializedAccess access(inst);
  core::LcaKpConfig lca_config;
  lca_config.eps = 0.2;
  lca_config.seed = 0xE21;
  lca_config.quantile_samples = smoke ? 20'000 : 200'000;
  const core::LcaKp lca(access, lca_config);

  bool ok = true;

  // --- 1. Failover availability: fleet vs single replica. -------------------
  const std::uint64_t kQueries = smoke ? 600 : 3'000;
  const auto single = run_kill_drill(lca, /*siblings=*/false, kQueries, kItems);
  const auto fleet = run_kill_drill(lca, /*siblings=*/true, kQueries, kItems);
  const double single_avail =
      static_cast<double>(single.served) / static_cast<double>(single.offered);
  const double fleet_avail =
      static_cast<double>(fleet.served) / static_cast<double>(fleet.offered);
  {
    util::Table table({"fleet shape", "offered", "served", "failed over",
                       "availability", "answer mismatches", "conserved"});
    table.row().cell("1 replica (baseline)").cell(single.offered)
        .cell(single.served).cell(single.failed_over).cell(single_avail, 3)
        .cell(single.mismatches).cell(single.conserved ? "yes" : "NO");
    table.row().cell("2 groups, home killed").cell(fleet.offered)
        .cell(fleet.served).cell(fleet.failed_over).cell(fleet_avail, 3)
        .cell(fleet.mismatches).cell(fleet.conserved ? "yes" : "NO");
    table.print(std::cout, "kill the home replica at query N/3");
    std::cout << "\n";
  }
  if (!single.conserved || !fleet.conserved) {
    std::cerr << "FAIL: fleet conservation violated — a query went "
                 "unaccounted\n";
    ok = false;
  }
  if (single.served >= single.offered) {
    std::cerr << "FAIL: the baseline kill never bit (served == offered); "
                 "the availability comparison is vacuous\n";
    ok = false;
  }
  if (fleet.served != fleet.offered) {
    std::cerr << "FAIL: the fleet dropped " << (fleet.offered - fleet.served)
              << " queries despite a live sibling\n";
    ok = false;
  }
  if (fleet.failed_over == 0) {
    std::cerr << "FAIL: no query failed over — the kill missed the home "
                 "replica\n";
    ok = false;
  }
  if (single.mismatches != 0 || fleet.mismatches != 0) {
    std::cerr << "FAIL: a served answer diverged from the warm run "
                 "(Lemma 4.9 violation)\n";
    ok = false;
  }

  // --- 2. Bootstrap-to-warm vs local snapshot restore. ----------------------
  const auto tmp = std::filesystem::temp_directory_path() /
                   ("bench_fleet_" + std::to_string(::getpid()));
  std::filesystem::remove_all(tmp);
  const auto donor_dir = tmp / "donor";
  std::filesystem::create_directories(donor_dir);

  const std::uint64_t kTape = 77;
  double warmup_us = 0.0;
  {
    metrics::Registry registry;
    store::StateStore donor({.capacity = 4, .snapshot_dir = donor_dir.string()},
                            registry);
    warmup_us = timed_us([&] { (void)donor.get("bench", lca, kTape); });
  }

  const int kReps = 5;
  double restore_us = 0.0;
  double bootstrap_us = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      metrics::Registry registry;
      store::StateStore reader(
          {.capacity = 4, .snapshot_dir = donor_dir.string()}, registry);
      const double us =
          timed_us([&] { (void)reader.get("bench", lca, kTape); });
      if (reader.stats().snapshot_hydrations != 1) {
        std::cerr << "FAIL: local restore did not hydrate from snapshot\n";
        ok = false;
      }
      restore_us = rep == 0 ? us : std::min(restore_us, us);
    }
    {
      const auto joiner_dir = tmp / ("joiner_" + std::to_string(rep));
      std::filesystem::create_directories(joiner_dir);
      metrics::Registry registry;
      store::StateStore joiner(
          {.capacity = 4, .snapshot_dir = joiner_dir.string()}, registry);
      const double us = timed_us([&] {
        (void)fleet::ship_snapshot((donor_dir / "bench.snap").string(),
                                   joiner_dir.string(), "bench");
        (void)joiner.get("bench", lca, kTape);
      });
      if (joiner.stats().snapshot_hydrations != 1) {
        std::cerr << "FAIL: bootstrap did not hydrate from the shipped "
                     "snapshot\n";
        ok = false;
      }
      bootstrap_us = rep == 0 ? us : std::min(bootstrap_us, us);
    }
  }
  std::filesystem::remove_all(tmp);

  const double ratio = restore_us > 0 ? bootstrap_us / restore_us : 0.0;
  {
    util::Table table({"path to warm", "best of 5 (us)"});
    table.row().cell("live warm-up (what bootstrap avoids)").cell(warmup_us, 0);
    table.row().cell("local snapshot restore").cell(restore_us, 0);
    table.row().cell("ship + fingerprint-checked restore").cell(bootstrap_us,
                                                                0);
    table.print(std::cout, "bootstrap-to-warm, one tenant");
    std::cout << "bootstrap / restore = " << ratio
              << "  (prediction: <= 10)\n\n";
  }
  if (ratio > 10.0) {
    std::cerr << "FAIL: snapshot-shipped bootstrap cost " << ratio
              << "x a local restore (predicted <= 10x)\n";
    ok = false;
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"fleet\",\n"
       << "  \"experiment\": \"E21\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"offered\": " << fleet.offered << ",\n"
       << "  \"single_served\": " << single.served << ",\n"
       << "  \"single_availability\": " << single_avail << ",\n"
       << "  \"fleet_served\": " << fleet.served << ",\n"
       << "  \"fleet_failed_over\": " << fleet.failed_over << ",\n"
       << "  \"fleet_availability\": " << fleet_avail << ",\n"
       << "  \"answer_mismatches\": " << (single.mismatches + fleet.mismatches)
       << ",\n"
       << "  \"conserved\": "
       << (single.conserved && fleet.conserved ? "true" : "false") << ",\n"
       << "  \"warmup_us\": " << warmup_us << ",\n"
       << "  \"restore_us\": " << restore_us << ",\n"
       << "  \"bootstrap_us\": " << bootstrap_us << ",\n"
       << "  \"bootstrap_ratio\": " << ratio << ",\n"
       << "  \"pass\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  return ok ? 0 : 1;
}
