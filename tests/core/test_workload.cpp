// Focused coverage for `generate_workload`, the trace generator the serving
// engine replays: coverage and validation, determinism per seed for every
// shape, the Zipf-exponent dial behaving monotonically, and hotspot traffic
// accounting.

#include "core/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <vector>

#include "util/request_trace.h"

namespace lcaknap::core {
namespace {

std::map<std::size_t, std::size_t> frequencies(const std::vector<std::size_t>& trace) {
  std::map<std::size_t, std::size_t> counts;
  for (const auto i : trace) ++counts[i];
  return counts;
}

/// Share of the trace carried by the k most frequent items.
double top_k_share(const std::vector<std::size_t>& trace, std::size_t k) {
  std::vector<std::size_t> sorted;
  for (const auto& [item, count] : frequencies(trace)) sorted.push_back(count);
  std::sort(sorted.rbegin(), sorted.rend());
  std::size_t top = 0;
  for (std::size_t i = 0; i < std::min(k, sorted.size()); ++i) top += sorted[i];
  return static_cast<double>(top) / static_cast<double>(trace.size());
}

TEST(Workload, UniformCoversTheIndexSpace) {
  WorkloadConfig config;
  config.queries = 50'000;
  const auto trace = generate_workload(100, config);
  ASSERT_EQ(trace.size(), 50'000u);
  for (const auto i : trace) ASSERT_LT(i, 100u);
  const auto counts = frequencies(trace);
  EXPECT_EQ(counts.size(), 100u);
  for (const auto& [item, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count), 500.0, 150.0);
  }
}

TEST(Workload, ZipfIsHeavilySkewed) {
  WorkloadConfig config;
  config.shape = WorkloadConfig::Shape::kZipf;
  config.queries = 50'000;
  config.zipf_s = 1.2;
  // The top item dominates; the top 10 carry a large share.
  EXPECT_GT(top_k_share(generate_workload(10'000, config), 10), 0.4);
}

TEST(Workload, HotspotRoutesTheConfiguredFraction) {
  WorkloadConfig config;
  config.shape = WorkloadConfig::Shape::kHotspot;
  config.queries = 50'000;
  config.hotspot_fraction = 0.8;
  config.hotspot_items = 4;
  EXPECT_NEAR(top_k_share(generate_workload(100'000, config), 4), 0.8, 0.05);
}

TEST(Workload, DeterministicPerSeedAndValidates) {
  WorkloadConfig config;
  config.queries = 100;
  EXPECT_EQ(generate_workload(50, config), generate_workload(50, config));
  EXPECT_THROW((void)generate_workload(0, config), std::invalid_argument);
  config.shape = WorkloadConfig::Shape::kZipf;
  config.zipf_s = 0.0;
  EXPECT_THROW((void)generate_workload(50, config), std::invalid_argument);
  config.shape = WorkloadConfig::Shape::kHotspot;
  config.hotspot_items = 0;
  EXPECT_THROW((void)generate_workload(50, config), std::invalid_argument);
}

TEST(Workload, AllShapesAreDeterministicPerSeed) {
  for (const auto shape :
       {WorkloadConfig::Shape::kUniform, WorkloadConfig::Shape::kZipf,
        WorkloadConfig::Shape::kHotspot}) {
    WorkloadConfig config;
    config.shape = shape;
    config.queries = 5'000;
    config.seed = 99;
    EXPECT_EQ(generate_workload(1'000, config), generate_workload(1'000, config));
    // A different seed produces a different trace (up to astronomically
    // unlikely collisions over 5000 draws).
    WorkloadConfig other = config;
    other.seed = 100;
    EXPECT_NE(generate_workload(1'000, config), generate_workload(1'000, other));
  }
}

TEST(Workload, ZipfExponentIsMonotoneInSkew) {
  // Higher s puts more mass on low ranks: the top-rank share must grow
  // along an increasing exponent ladder (same seed, so the rank->item
  // permutation is identical and shares are comparable).
  WorkloadConfig config;
  config.shape = WorkloadConfig::Shape::kZipf;
  config.queries = 40'000;
  config.seed = 7;
  double previous = 0.0;
  for (const double s : {0.5, 0.9, 1.3, 1.7}) {
    config.zipf_s = s;
    const double share = top_k_share(generate_workload(5'000, config), 10);
    EXPECT_GT(share, previous) << "zipf_s = " << s;
    previous = share;
  }
  // End-to-end sanity: strong skew concentrates a majority on 10 items out
  // of 5000, weak skew does not.
  config.zipf_s = 1.7;
  EXPECT_GT(top_k_share(generate_workload(5'000, config), 10), 0.5);
  config.zipf_s = 0.5;
  EXPECT_LT(top_k_share(generate_workload(5'000, config), 10), 0.2);
}

TEST(Workload, HotspotFractionAccounting) {
  // The hot set receives hotspot_fraction of the traffic *plus* its share
  // of the uniform remainder; with n >> hotspot_items the latter vanishes.
  WorkloadConfig config;
  config.shape = WorkloadConfig::Shape::kHotspot;
  config.queries = 60'000;
  config.hotspot_items = 8;
  for (const double fraction : {0.3, 0.6, 0.95}) {
    config.hotspot_fraction = fraction;
    const auto trace = generate_workload(100'000, config);
    EXPECT_NEAR(top_k_share(trace, config.hotspot_items), fraction, 0.03)
        << "fraction = " << fraction;
  }
}

TEST(Workload, HotspotSetIsStablePerSeed) {
  // The identity of the hot items is a function of the seed alone, not of
  // the trace length — a longer replay hammers the same keys.
  WorkloadConfig short_config;
  short_config.shape = WorkloadConfig::Shape::kHotspot;
  short_config.queries = 10'000;
  short_config.hotspot_fraction = 1.0;  // all traffic hot: exposes the set
  short_config.hotspot_items = 4;
  WorkloadConfig long_config = short_config;
  long_config.queries = 30'000;
  const auto short_freq = frequencies(generate_workload(50'000, short_config));
  const auto long_freq = frequencies(generate_workload(50'000, long_config));
  ASSERT_LE(short_freq.size(), 4u);
  ASSERT_LE(long_freq.size(), 4u);
  for (const auto& [item, count] : short_freq) {
    EXPECT_TRUE(long_freq.count(item) > 0) << "hot item " << item << " drifted";
  }
}

/// Writes `items` as a minimal valid trace file and returns its path.
std::string write_items_trace(const std::vector<std::size_t>& items,
                              const std::string& name) {
  std::vector<util::TraceRecord> records;
  for (std::size_t q = 0; q < items.size(); ++q) {
    records.push_back(util::TraceRecord{q, items[q], "default"});
  }
  const auto path = (std::filesystem::temp_directory_path() / name).string();
  util::save_trace_file(records, path);
  return path;
}

TEST(Workload, TraceShapeReplaysRecordedItemsInOrder) {
  const auto path = write_items_trace({5, 17, 5, 900, 3},
                                      "lcaknap_workload_replay.trace");
  WorkloadConfig config;
  config.shape = WorkloadConfig::Shape::kTrace;
  config.trace_path = path;
  config.queries = 5;
  const std::vector<std::size_t> want = {5, 17, 5, 900, 3};
  EXPECT_EQ(generate_workload(1'000, config), want);
  // Items beyond the instance wrap by modulo, like every other shape.
  const std::vector<std::size_t> want_mod10 = {5, 7, 5, 0, 3};
  EXPECT_EQ(generate_workload(10, config), want_mod10);
  std::remove(path.c_str());
}

TEST(Workload, TraceShapeTruncatesAndWrapsToQueryCount) {
  const auto path =
      write_items_trace({1, 2, 3}, "lcaknap_workload_wrap.trace");
  WorkloadConfig config;
  config.shape = WorkloadConfig::Shape::kTrace;
  config.trace_path = path;
  // Shorter than the trace: truncate.
  config.queries = 2;
  EXPECT_EQ(generate_workload(100, config), (std::vector<std::size_t>{1, 2}));
  // Longer than the trace: wrap around so load factors stay composable.
  config.queries = 7;
  EXPECT_EQ(generate_workload(100, config),
            (std::vector<std::size_t>{1, 2, 3, 1, 2, 3, 1}));
  // queries == 0 means "the natural length of the trace".
  config.queries = 0;
  EXPECT_EQ(generate_workload(100, config), (std::vector<std::size_t>{1, 2, 3}));
  std::remove(path.c_str());
}

TEST(Workload, TraceShapeRejectsMissingOrEmptyInputs) {
  WorkloadConfig config;
  config.shape = WorkloadConfig::Shape::kTrace;
  config.queries = 10;
  // No path configured.
  EXPECT_THROW((void)generate_workload(100, config), std::invalid_argument);
  // Path configured but no such file.
  config.trace_path = "/nonexistent/lcaknap.trace";
  EXPECT_THROW((void)generate_workload(100, config), std::runtime_error);
  // A valid but empty trace cannot drive a workload.
  const auto path = write_items_trace({}, "lcaknap_workload_empty.trace");
  config.trace_path = path;
  EXPECT_THROW((void)generate_workload(100, config), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Workload, HotspotClampsHotSetToInstanceSize) {
  WorkloadConfig config;
  config.shape = WorkloadConfig::Shape::kHotspot;
  config.queries = 1'000;
  config.hotspot_items = 64;  // larger than the instance
  const auto trace = generate_workload(10, config);
  for (const auto i : trace) EXPECT_LT(i, 10u);
}

}  // namespace
}  // namespace lcaknap::core
