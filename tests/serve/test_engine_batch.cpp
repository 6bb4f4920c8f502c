#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cert/cert_log.h"
#include "cert/certificate.h"
#include "core/lca_kp.h"
#include "fault/chaos.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "util/virtual_clock.h"

/// \file test_engine_batch.cpp
/// The engine's one answer path (`execute_batch_group`: shard-grouped cache
/// operations around `core::BatchEval`): every answer and every certificate
/// witness must equal the per-request reference
/// `LcaKp::answer_with_witness` on the engine's run, and counters and
/// failure semantics follow from the traffic alone.

namespace lcaknap::serve {
namespace {

using namespace std::chrono_literals;

class EngineBatchEval : public ::testing::Test {
 public:
  static const oracle::MaterializedAccess* shared_access() { return access_; }

 protected:
  static void SetUpTestSuite() {
    instance_ = new knapsack::Instance(
        knapsack::make_family(knapsack::Family::kNeedle, 2'000, 17));
    access_ = new oracle::MaterializedAccess(*instance_);
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0x5E;
    config.quantile_samples = 20'000;
    lca_ = new core::LcaKp(*access_, config);
  }
  static void TearDownTestSuite() {
    delete lca_;
    delete access_;
    delete instance_;
    lca_ = nullptr;
    access_ = nullptr;
    instance_ = nullptr;
  }

  static EngineConfig fast_config() {
    EngineConfig config;
    config.workers = 3;
    config.queue_capacity = 4'096;
    config.batcher.max_batch_size = 16;
    config.batcher.max_linger = 100us;
    config.cache.capacity = 1'024;
    config.cache.shards = 4;
    return config;
  }

  /// Observation count of the `serve_batch_eval_us` histogram (0 if absent).
  static std::uint64_t batch_eval_observations(metrics::Registry& registry) {
    const auto snapshot = registry.snapshot();
    for (const auto& hist : snapshot.histograms) {
      if (hist.name == "serve_batch_eval_us") return hist.count;
    }
    return 0;
  }

  static const knapsack::Instance* instance_;
  static const oracle::MaterializedAccess* access_;
  static const core::LcaKp* lca_;
};

const knapsack::Instance* EngineBatchEval::instance_ = nullptr;
const oracle::MaterializedAccess* EngineBatchEval::access_ = nullptr;
const core::LcaKp* EngineBatchEval::lca_ = nullptr;

TEST_F(EngineBatchEval, BatchPathMatchesPerRequestPath) {
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);

  std::vector<std::future<Response>> futures;
  for (std::size_t q = 0; q < 600; ++q) futures.push_back(engine.submit(q % 400));
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const auto response = futures[q].get();
    ASSERT_EQ(response.outcome, Outcome::kOk);
    core::LcaKp::AnswerWitness witness;
    EXPECT_EQ(response.answer,
              lca_->answer_with_witness(engine.run(), q % 400, witness))
        << "query " << q;
  }
  engine.drain();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded +
                                 stats.deadline_exceeded + stats.degraded +
                                 stats.errors);
  // The histogram sees one observation per dispatch group with a miss.
  EXPECT_GT(batch_eval_observations(registry), 0u);
}

TEST_F(EngineBatchEval, CacheCountersMatchPerRequestPath) {
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  // Sequential traffic, one lookup per request: (q * 13) % 120 visits all
  // 120 items in its first 120 requests (13 is coprime to 120), so each
  // item misses exactly once and every later request hits.  The cache
  // holds 1,024 entries, far above the 120-item working set.
  for (std::size_t q = 0; q < 900; ++q) {
    const std::size_t item = (q * 13) % 120;
    ASSERT_EQ(engine.submit_wait(item).outcome, Outcome::kOk);
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 120u);
  EXPECT_EQ(stats.cache_hits, 780u);
  EXPECT_EQ(stats.cache_evictions, 0u);
}

TEST_F(EngineBatchEval, ParanoiaRecheckRunsOnBatchPathWithoutViolations) {
  metrics::Registry registry;
  auto config = fast_config();
  config.cache.paranoia_every = 1;  // recheck every hit
  ServeEngine engine(*lca_, config, registry);
  std::vector<std::future<Response>> futures;
  for (std::size_t q = 0; q < 400; ++q) {
    futures.push_back(engine.submit(q % 8));
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.get().outcome, Outcome::kOk);
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_GT(stats.paranoia_checks, 0u);
  // Definition 2.3: the recheck runs the same LcaKp rule that filled the
  // cache entry, so paranoia mode stays quiet.
  EXPECT_EQ(stats.paranoia_violations, 0u);
}

TEST_F(EngineBatchEval, CertificatesFlowFromBatchWitnesses) {
  const auto cert_dir =
      std::filesystem::temp_directory_path() / "lcaknap_batch_cert";
  std::filesystem::remove_all(cert_dir);
  std::filesystem::create_directories(cert_dir);
  metrics::Registry registry;
  auto config = fast_config();
  config.certify = true;
  config.cert_dir = cert_dir.string();
  {
    ServeEngine engine(*lca_, config, registry);
    for (std::size_t item = 0; item < 200; ++item) {
      ASSERT_EQ(engine.submit_wait(item).outcome, Outcome::kOk);
    }
    engine.drain();
    const auto stats = engine.stats();
    // Every kOk answer carried a witness — nothing skipped certification.
    EXPECT_EQ(stats.cert_records, 200u);
    EXPECT_EQ(stats.cert_skipped, 0u);

    // Every record's witness is the reference evaluation on the engine's run.
    std::size_t records = 0;
    for (const auto& path : cert::CertLog::list_segments(cert_dir.string())) {
      std::ifstream in(path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      ASSERT_GE(bytes.size(), cert::kCertHeaderBytes) << path;
      for (std::size_t at = cert::kCertHeaderBytes; at < bytes.size();
           at += cert::kCertRecordBytes) {
        const cert::CertRecord record = cert::decode_record(
            std::string_view(bytes).substr(at, cert::kCertRecordBytes));
        core::LcaKp::AnswerWitness witness;
        const bool answer =
            lca_->answer_with_witness(engine.run(), record.item, witness);
        EXPECT_EQ(record.answer, answer) << "item " << record.item;
        EXPECT_EQ(record.profit, witness.profit) << "item " << record.item;
        EXPECT_EQ(record.weight, witness.weight) << "item " << record.item;
        EXPECT_EQ(record.case_tag, cert::case_of(witness))
            << "item " << record.item;
        ++records;
      }
    }
    EXPECT_EQ(records, 200u);
  }
  std::filesystem::remove_all(cert_dir);
}

TEST_F(EngineBatchEval, ExpiredDeadlinesAreShedOnTheBatchPath) {
  metrics::Registry registry;
  auto config = fast_config();
  ServeEngine engine(*lca_, config, registry);
  const auto response = engine.submit(3, 0us).get();
  EXPECT_EQ(response.outcome, Outcome::kDeadlineExceeded);
  engine.drain();
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
}

TEST_F(EngineBatchEval, OutOfRangeItemYieldsErrorNotCrash) {
  metrics::Registry registry;
  auto config = fast_config();
  ServeEngine engine(*lca_, config, registry);
  EXPECT_EQ(engine.submit_wait(instance_->size() + 10).outcome, Outcome::kError);
  EXPECT_EQ(engine.submit_wait(0).outcome, Outcome::kOk);
  engine.drain();
  EXPECT_EQ(engine.stats().errors, 1u);
}

TEST_F(EngineBatchEval, DegradedModeAnswersThroughAnOutage) {
  metrics::Registry registry;
  auto config = fast_config();
  config.degrade = true;
  // A dead oracle behind the batch path: per-lane fault isolation must turn
  // every miss into the documented degraded fallback, not an error.
  util::VirtualClock clock;
  fault::FaultPhase down;
  down.label = "down";
  down.duration_us = 0;  // hold forever
  down.fail_rate = 1.0;
  fault::ChaosAccess chaos(*shared_access(),
                           fault::FaultPlan({down}, /*seed=*/0xD0A), clock,
                           /*armed=*/false, registry);
  core::LcaKpConfig lca_config;
  lca_config.eps = 0.2;
  lca_config.seed = 0x5E;
  lca_config.quantile_samples = 20'000;
  const core::LcaKp chaotic_lca(chaos, lca_config);
  ServeEngine engine(chaotic_lca, config, registry);
  chaos.arm();

  for (std::size_t item = 100; item < 140; ++item) {
    const auto response = engine.submit_wait(item);
    ASSERT_EQ(response.outcome, Outcome::kDegraded) << "item " << item;
    EXPECT_EQ(response.answer, engine.run().index_large.contains(item));
  }
  // Degraded answers were not cached: recovery restores full LCA quality.
  chaos.disarm();
  for (std::size_t item = 100; item < 140; ++item) {
    const auto response = engine.submit_wait(item);
    ASSERT_EQ(response.outcome, Outcome::kOk);
    EXPECT_EQ(response.answer, chaotic_lca.answer_from(engine.run(), item));
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.degraded, 40u);
  EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded +
                                 stats.deadline_exceeded + stats.degraded +
                                 stats.errors);
}

}  // namespace
}  // namespace lcaknap::serve
