// Drives the lcaknap_fleet orchestrator end-to-end through std::system: a
// real multi-process drill — replica group spawned per group, one SIGKILLed
// mid-storm, a replacement bootstrapped from a shipped snapshot — asserting
// the drill's own invariants through its JSON ledger and exit code.  Binary
// paths come in as LCAKNAP_FLEET_PATH / LCAKNAP_CLI_PATH compile defs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef LCAKNAP_FLEET_PATH
#error "LCAKNAP_FLEET_PATH must be defined by the build"
#endif
#ifndef LCAKNAP_CLI_PATH
#error "LCAKNAP_CLI_PATH must be defined by the build"
#endif

const std::string kFleet = LCAKNAP_FLEET_PATH;
const std::string kCli = LCAKNAP_CLI_PATH;

struct CommandResult {
  int exit_code;
  std::string output;
};

/// A temp-file path private to the running test: ctest runs each case as its
/// own process, concurrently under -j, so a shared name would let one case
/// read another's output.
std::string test_temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "fleet_" + info->name() + "_" + suffix;
}

CommandResult run(const std::string& binary, const std::string& args) {
  const std::string out_file = test_temp_path("out.txt");
  const std::string command = binary + " " + args + " > " + out_file + " 2>&1";
  const int status = std::system(command.c_str());
  std::ifstream in(out_file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return {WEXITSTATUS(status), buffer.str()};
}

/// Pulls `"key":<number>` out of the drill's one-line JSON ledger.
std::uint64_t json_u64(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << "no field " << key << " in " << json;
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

bool json_bool(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << "no field " << key << " in " << json;
  return at != std::string::npos &&
         json.compare(at + key.size() + 3, 4, "true") == 0;
}

std::string make_instance() {
  const std::string path = test_temp_path("instance.txt");
  const auto gen = run(
      kCli, "generate --family uncorrelated --n 3000 --seed 11 --out " + path);
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
  return path;
}

TEST(FleetDrill, KillMidStormDrillHoldsEveryInvariant) {
  const auto instance = make_instance();
  const auto drill = run(
      kFleet, "drill --cli " + kCli + " --in " + instance +
                  " --groups 3 --queries 150 --kill-after 60"
                  " --check-items 24 --eps 0.25 --json --work-dir " +
                  ::testing::TempDir() + "fleet_drill_kill");
  ASSERT_EQ(drill.exit_code, 0) << drill.output;

  // The last line is the JSON ledger (spawn announcements precede it).
  const auto json_at = drill.output.rfind("{\"offered\"");
  ASSERT_NE(json_at, std::string::npos) << drill.output;
  const auto json = drill.output.substr(json_at);

  EXPECT_EQ(json_u64(json, "offered"), 150u);
  EXPECT_TRUE(json_bool(json, "conserved")) << json;
  EXPECT_GT(json_u64(json, "failed_over"), 0u)
      << "the killed home replica forces failover: " << json;
  EXPECT_EQ(json_u64(json, "divergences"), 0u) << json;
  EXPECT_TRUE(json_bool(json, "replacement_warm")) << json;
  EXPECT_EQ(json_u64(json, "replacement_mismatched"), 0u)
      << "snapshot-bootstrapped replacement must answer digest-identically: "
      << json;
  EXPECT_GT(json_u64(json, "replacement_verified"), 0u) << json;
  EXPECT_GT(json_u64(json, "bootstrap_us"), 0u) << json;
  EXPECT_GT(json_u64(json, "shipped_bytes"), 0u) << json;
}

TEST(FleetDrill, CorruptedShipmentFallsBackToLiveWarmupNotBadAnswers) {
  const auto instance = make_instance();
  const auto drill = run(
      kFleet, "drill --cli " + kCli + " --in " + instance +
                  " --groups 2 --queries 80 --kill-after 30 --check-items 16"
                  " --eps 0.25 --corrupt-shipment --json --work-dir " +
                  ::testing::TempDir() + "fleet_drill_corrupt");
  ASSERT_EQ(drill.exit_code, 0) << drill.output;
  const auto json_at = drill.output.rfind("{\"offered\"");
  ASSERT_NE(json_at, std::string::npos) << drill.output;
  const auto json = drill.output.substr(json_at);

  // The shipment was sabotaged, so the replacement paid the cold start —
  // but it still reports warm and still answers byte-identically.  A
  // corrupted snapshot degrades bootstrap *speed*, never correctness.
  EXPECT_TRUE(json_bool(json, "conserved")) << json;
  EXPECT_TRUE(json_bool(json, "replacement_warm")) << json;
  EXPECT_EQ(json_u64(json, "replacement_mismatched"), 0u) << json;
  EXPECT_EQ(json_u64(json, "divergences"), 0u) << json;
}

TEST(FleetDrill, UsageErrorsExitOne) {
  EXPECT_EQ(run(kFleet, "").exit_code, 1);
  EXPECT_EQ(run(kFleet, "frobnicate").exit_code, 1);
  EXPECT_EQ(run(kFleet, "drill").exit_code, 1);           // missing --cli/--in
  EXPECT_EQ(run(kFleet, "check").exit_code, 1);           // missing --targets
  EXPECT_EQ(run(kFleet, "check --targets one").exit_code, 1);
  EXPECT_EQ(run(kFleet, "map --groups 0").exit_code, 1);  // empty ring
}

TEST(FleetDrill, UnknownFlagsAndMalformedNumbersExitOne) {
  // Each subcommand accepts only its own flags; integers are decimal or 0x
  // hex and must parse as a whole token.
  EXPECT_EQ(run(kFleet, "map --groups 3 --tenant-lst default").exit_code, 1);
  EXPECT_EQ(run(kFleet, "map --groups 3x").exit_code, 1);
  EXPECT_EQ(run(kFleet, "map --groups 3 --json").exit_code, 1);  // drill/check only
  EXPECT_EQ(run(kFleet, "map --groups 0x3 --tenant-list default").exit_code, 0);
}

TEST(FleetDrill, MapSubcommandPinsPlacementsAcrossProcesses) {
  // The same golden placements tests/fleet/test_map.cpp pins in-process,
  // observed through the CLI — placement is a cross-process contract.
  const auto map = run(kFleet, "map --groups 3 --tenant-list default,alpha,beta");
  ASSERT_EQ(map.exit_code, 0) << map.output;
  EXPECT_NE(map.output.find("default"), std::string::npos);
  EXPECT_NE(map.output.find("0 -> 1 -> 2"), std::string::npos) << map.output;
  EXPECT_NE(map.output.find("1 -> 0 -> 2"), std::string::npos) << map.output;
  EXPECT_NE(map.output.find("2 -> 0 -> 1"), std::string::npos) << map.output;
}

}  // namespace
