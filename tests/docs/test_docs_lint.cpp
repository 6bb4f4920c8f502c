#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cert/cert_log.h"
#include "cert/verifier.h"
#include "core/lca_kp.h"
#include "dyn/epoch_state.h"
#include "fault/chaos.h"
#include "fault/circuit_breaker.h"
#include "fault/plan.h"
#include "fault/verifying.h"
#include "fleet/chaos.h"
#include "fleet/checker.h"
#include "fleet/client.h"
#include "fleet/map.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "net/session.h"
#include "oracle/access.h"
#include "oracle/retrying.h"
#include "oracle/instrumented.h"
#include "oracle/sharded.h"
#include "serve/engine.h"
#include "store/snapshot.h"
#include "store/state_store.h"
#include "util/virtual_clock.h"

/// Docs lint (ISSUE 6 satellite): the documentation is part of the operator
/// contract, so CI holds it to two machine-checkable invariants:
///
///  1. every metric family the serving stack can export has a row in
///     docs/OBSERVABILITY.md, and every row there names a family the stack
///     registers — enforced by instantiating every metric-producing
///     component against the registry and diffing the registered family
///     names against the catalogue in both directions;
///  2. every relative markdown link in README.md and docs/ resolves to a
///     file that exists in the repo.
///
/// The source tree location comes in via the LCAKNAP_SOURCE_DIR compile
/// definition (see tests/CMakeLists.txt).

namespace lcaknap {
namespace {

std::filesystem::path source_dir() {
  return std::filesystem::path(LCAKNAP_SOURCE_DIR);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

TEST(DocsLint, EveryExportedMetricFamilyHasACatalogueRow) {
  const auto tmp = std::filesystem::temp_directory_path() /
                   ("lcaknap_docs_lint_" +
                    std::to_string(
                        ::testing::UnitTest::GetInstance()->random_seed()));
  std::filesystem::remove_all(tmp);
  std::filesystem::create_directories(tmp / "certs");
  std::filesystem::create_directories(tmp / "snaps");

  // Instantiate (and lightly exercise) every metric-producing component so
  // each family registers.  This test binary owns the global registry:
  // everything below lands there.
  auto& registry = metrics::global_registry();
  const auto inst =
      knapsack::make_family(knapsack::Family::kUncorrelated, 300, 4);
  const oracle::MaterializedAccess storage(inst);
  const oracle::InstrumentedAccess instrumented(storage, registry);
  const fault::ChaosAccess flaky(instrumented,
                                 fault::parse_fault_plan("flaky:0:fail=0.01", 0xF1A),
                                 util::system_clock(), /*armed=*/true, registry);
  const oracle::RetryingAccess retrying(flaky, oracle::RetryConfig{},
                                        util::system_clock(), registry);
  const oracle::ShardedAccess sharded(inst, 4, registry);
  const fault::ChaosAccess chaos(
      instrumented, fault::parse_fault_plan("steady:0", 1),
      util::system_clock(), /*armed=*/false, registry);
  const fault::VerifyingAccess verifying(chaos, registry);
  const fault::BreakerAccess breaker(instrumented, fault::CircuitBreakerConfig{},
                                     util::system_clock(), registry);

  core::LcaKpConfig lca_config;
  lca_config.eps = 0.3;
  lca_config.seed = 0xFEED;
  lca_config.large_samples = 500;
  lca_config.quantile_samples = 1'024;
  const core::LcaKp lca(retrying, lca_config);

  {
    serve::EngineConfig engine_config;
    engine_config.workers = 2;
    engine_config.cache.capacity = 64;
    engine_config.certify = true;
    engine_config.cert_dir = (tmp / "certs").string();
    serve::ServeEngine engine(lca, engine_config, registry);
    (void)engine.submit_wait(1);
    engine.drain();
    const cert::LogVerifier verifier(
        store::fingerprint_of(lca, engine_config.warmup_tape_seed),
        engine.run(), {}, registry);
    (void)verifier.verify_path(engine_config.cert_dir);
  }
  {
    store::StateStoreConfig store_config;
    store_config.snapshot_dir = (tmp / "snaps").string();
    store::StateStore state_store(store_config, registry);
    (void)state_store.get("lint", lca, 7);
  }
  {
    // The network front-end: router + epoll server + one wire round-trip
    // registers every net_* family (src/net/, docs/NETWORKING.md).
    store::StateStoreConfig net_store_config;
    store::StateStore net_store(net_store_config, registry);
    net::TenantRouter router(net_store, registry);
    net::TenantConfig tenant;
    tenant.lca = &lca;
    tenant.engine.workers = 1;
    router.register_tenant("lint", tenant);
    router.warm_all();
    net::Server server(router, net::ServerConfig{}, registry);
    net::Client client("127.0.0.1", server.port());
    net::RequestFrame frame;
    frame.tenant = "lint";
    (void)client.call(frame);
    server.stop();
    router.drain();
  }
  {
    // The fleet layer: placement map, failover client, replica chaos, and
    // the cross-replica checker register every fleet_* family
    // (src/fleet/, docs/FLEET.md).  Nothing listens on port 1, so the one
    // query settles kError instantly on the virtual clock — families
    // register at construction either way.
    util::VirtualClock fleet_clock;
    fleet::FleetClientConfig fleet_config;
    fleet_config.replicas = {{1, 0, "127.0.0.1", 1}, {2, 1, "127.0.0.1", 1}};
    fleet::FleetClient fleet_client(fleet_config, fleet_clock, registry);
    (void)fleet_client.query("lint", 1);
    fleet::ReplicaChaos replica_chaos(fault::parse_fault_plan("steady:0", 1),
                                      {{1, "lint"}}, fleet::ChaosHooks{},
                                      fleet_clock, registry);
    (void)replica_chaos.tick();
    fleet::ConsistencyChecker checker(
        {{1, "127.0.0.1", 1}, {2, "127.0.0.1", 1}}, registry);
    (void)checker.check("lint", 1);
  }
  {
    // Dynamic instances (src/dyn/, docs/DYNAMIC.md): every dyn_* family
    // registers at EpochedState construction.
    dyn::EpochConfig dyn_config;
    dyn_config.lca = lca_config;
    const dyn::EpochedState epoched(
        knapsack::make_family(knapsack::Family::kUncorrelated, 200, 5),
        dyn_config, registry);
  }
  std::filesystem::remove_all(tmp);

  const std::string doc = read_file(source_dir() / "docs" / "OBSERVABILITY.md");
  const auto snapshot = registry.snapshot();
  std::set<std::string> families;
  for (const auto& sample : snapshot.counters) families.insert(sample.name);
  for (const auto& sample : snapshot.gauges) families.insert(sample.name);
  for (const auto& sample : snapshot.histograms) families.insert(sample.name);
  // The harness registered a meaningful stack, or the lint proves nothing.
  ASSERT_GE(families.size(), 30u);

  for (const auto& family : families) {
    // A catalogue row always renders the family name in backticks.
    EXPECT_NE(doc.find("`" + family), std::string::npos)
        << "metric family `" << family
        << "` is exported but has no row in docs/OBSERVABILITY.md";
  }

  // The other direction: every catalogue row names a family the harness
  // registered, so a row cannot outlive the metric it documents.  A row is
  // a table line starting "| `"; its family is the first backticked name
  // with any `{label}` suffix removed.
  std::istringstream lines(doc);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << "unterminated row name: " << line;
    const std::string name = line.substr(3, end - 3);
    const std::string family = name.substr(0, name.find('{'));
    EXPECT_TRUE(families.contains(family))
        << "docs/OBSERVABILITY.md has a row for `" << family
        << "`, but no component in the harness registers it";
    ++rows;
  }
  // The catalogue table was found, or the reverse check proves nothing.
  EXPECT_GE(rows, 30u);
}

/// Extracts markdown link targets: every `](target)` occurrence.
std::vector<std::string> link_targets(const std::string& text) {
  std::vector<std::string> targets;
  std::size_t at = 0;
  while ((at = text.find("](", at)) != std::string::npos) {
    const std::size_t start = at + 2;
    const std::size_t end = text.find(')', start);
    if (end == std::string::npos) break;
    targets.push_back(text.substr(start, end - start));
    at = end + 1;
  }
  return targets;
}

TEST(DocsLint, EveryRelativeMarkdownLinkResolves) {
  std::vector<std::filesystem::path> pages = {source_dir() / "README.md",
                                              source_dir() / "ROADMAP.md"};
  for (const auto& entry :
       std::filesystem::directory_iterator(source_dir() / "docs")) {
    if (entry.path().extension() == ".md") pages.push_back(entry.path());
  }
  ASSERT_GE(pages.size(), 5u);

  std::size_t checked = 0;
  for (const auto& page : pages) {
    const std::string text = read_file(page);
    for (const auto& raw : link_targets(text)) {
      if (raw.empty() || raw.front() == '#') continue;  // intra-page anchor
      if (raw.find("://") != std::string::npos) continue;  // external URL
      if (raw.rfind("mailto:", 0) == 0) continue;
      // Strip any trailing anchor: FILE.md#section -> FILE.md.
      const std::string target = raw.substr(0, raw.find('#'));
      const auto resolved = page.parent_path() / target;
      EXPECT_TRUE(std::filesystem::exists(resolved))
          << page.filename().string() << " links to " << raw
          << " but " << resolved << " does not exist";
      ++checked;
    }
  }
  // The docs index alone cross-links every page; a tiny count means the
  // extractor broke, not that the docs went quiet.
  EXPECT_GE(checked, 20u);
}

}  // namespace
}  // namespace lcaknap
