// Drives the lcaknap_loadgen binary end-to-end through std::system against
// an in-process server: record a run to a trace file, validate the artifact,
// replay it, and check wire conservation both ways.  The binary path is
// injected by CMake as LCAKNAP_LOADGEN_PATH.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "net/server.h"
#include "net/session.h"
#include "oracle/access.h"
#include "store/state_store.h"
#include "util/request_trace.h"

namespace lcaknap {
namespace {

#ifndef LCAKNAP_LOADGEN_PATH
#error "LCAKNAP_LOADGEN_PATH must be defined by the build"
#endif

const std::string kLoadgen = LCAKNAP_LOADGEN_PATH;

struct CommandResult {
  int exit_code;
  std::string output;
};

CommandResult run_loadgen(const std::string& args) {
  // Named after the running test: ctest runs each case as its own process,
  // concurrently under -j, so a shared output file would be a race.
  const std::string out_file =
      ::testing::TempDir() + "loadgen_out_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt";
  const std::string command =
      kLoadgen + " " + args + " > " + out_file + " 2>&1";
  const int status = std::system(command.c_str());
  std::ifstream in(out_file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return {WEXITSTATUS(status), buffer.str()};
}

/// One warm single-tenant serving stack on an ephemeral loopback port.
class LoadgenTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = std::make_unique<knapsack::Instance>(
        knapsack::make_family(knapsack::Family::kNeedle, 1'000, 17));
    access_ = std::make_unique<oracle::MaterializedAccess>(*instance_);
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0x5E;
    config.quantile_samples = 20'000;
    lca_ = std::make_unique<core::LcaKp>(*access_, config);

    store_ = std::make_unique<store::StateStore>(
        store::StateStoreConfig{.capacity = 4}, registry_);
    router_ = std::make_unique<net::TenantRouter>(*store_, registry_);
    net::TenantConfig tenant;
    tenant.lca = lca_.get();
    tenant.engine.workers = 2;
    tenant.engine.queue_capacity = 4'096;
    tenant.engine.batcher.max_batch_size = 16;
    tenant.engine.batcher.max_linger = std::chrono::microseconds(100);
    tenant.engine.cache.capacity = 1'024;
    tenant.engine.cache.shards = 4;
    router_->register_tenant("default", tenant);
    router_->warm_all();
    server_ = std::make_unique<net::Server>(*router_, net::ServerConfig{},
                                            registry_);
  }
  void TearDown() override {
    if (server_) server_->stop();
    if (router_) router_->drain();
  }

  std::string port_arg() const {
    return "--port " + std::to_string(server_->port());
  }

  metrics::Registry registry_;
  std::unique_ptr<knapsack::Instance> instance_;
  std::unique_ptr<oracle::MaterializedAccess> access_;
  std::unique_ptr<core::LcaKp> lca_;
  std::unique_ptr<store::StateStore> store_;
  std::unique_ptr<net::TenantRouter> router_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(LoadgenTraceTest, RecordThenReplayRoundTrips) {
  const std::string trace_path = ::testing::TempDir() + "loadgen_rt.trace";

  // Phase 1: record a closed-loop run.  Every sent frame lands in the trace.
  const auto record = run_loadgen(port_arg() +
                                  " --queries 200 --connections 2 --window 4"
                                  " --items-max 500 --seed 9 --json"
                                  " --trace-record " + trace_path);
  ASSERT_EQ(record.exit_code, 0) << record.output;
  EXPECT_NE(record.output.find("\"sent\":200"), std::string::npos)
      << record.output;
  EXPECT_NE(record.output.find("\"conserved\":true"), std::string::npos);

  // The artifact is a valid trace: the strict parser enforces the header,
  // the tenant alphabet, and non-decreasing timestamps.
  const auto records = util::load_trace_file(trace_path);
  ASSERT_EQ(records.size(), 200u);
  for (const auto& record_entry : records) {
    EXPECT_LT(record_entry.item, 500u);
    EXPECT_EQ(record_entry.tenant, "default");
  }

  // Phase 2: replay the trace.  Each record is sent exactly once.
  const auto replay =
      run_loadgen(port_arg() + " --json --trace-replay " + trace_path);
  ASSERT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("\"sent\":200"), std::string::npos)
      << replay.output;
  EXPECT_NE(replay.output.find("\"conserved\":true"), std::string::npos);

  // Phase 3: --queries caps the replay prefix.
  const auto capped = run_loadgen(port_arg() + " --queries 50 --json"
                                  " --trace-replay " + trace_path);
  ASSERT_EQ(capped.exit_code, 0) << capped.output;
  EXPECT_NE(capped.output.find("\"sent\":50"), std::string::npos)
      << capped.output;

  // The server saw every frame of all three runs.
  EXPECT_EQ(server_->stats().frames_in, 200u + 200u + 50u);
  std::remove(trace_path.c_str());
}

TEST_F(LoadgenTraceTest, ReplayUsageErrors) {
  // Replaying a file that does not exist is a runtime failure (exit 2), not
  // a crash or a silent empty run.
  const auto missing = run_loadgen(
      port_arg() + " --trace-replay /nonexistent/lcaknap.trace");
  EXPECT_EQ(missing.exit_code, 2) << missing.output;

  // An empty (but well-formed) trace cannot drive a run.
  const std::string empty_path = ::testing::TempDir() + "loadgen_empty.trace";
  util::save_trace_file({}, empty_path);
  const auto empty = run_loadgen(port_arg() + " --trace-replay " + empty_path);
  EXPECT_EQ(empty.exit_code, 1) << empty.output;
  std::remove(empty_path.c_str());
}

TEST_F(LoadgenTraceTest, UnknownFlagsAndMalformedNumbersExitOne) {
  // A misspelled flag or a number with trailing junk is a usage error
  // before any frame is sent, never a run on a silently substituted default.
  const auto typo = run_loadgen(port_arg() + " --queries 10 --windw 4 --json");
  EXPECT_EQ(typo.exit_code, 1) << typo.output;
  EXPECT_NE(typo.output.find("--windw"), std::string::npos) << typo.output;
  const auto junk = run_loadgen(port_arg() + " --queries 10x --json");
  EXPECT_EQ(junk.exit_code, 1) << junk.output;
  EXPECT_EQ(server_->stats().frames_in, 0u);
}

TEST_F(LoadgenTraceTest, RateFlagsOutsideTheirModeExitOne) {
  // --period-ms acts only on the diurnal shape and --qps only on the open
  // loop: outside them each is a usage error before any frame is sent,
  // never a run that ignores it.
  const auto period =
      run_loadgen(port_arg() + " --queries 10 --period-ms 200 --json");
  EXPECT_EQ(period.exit_code, 1) << period.output;
  EXPECT_NE(period.output.find("--period-ms needs --shape diurnal"),
            std::string::npos)
      << period.output;
  const auto qps = run_loadgen(port_arg() + " --queries 10 --qps 100 --json");
  EXPECT_EQ(qps.exit_code, 1) << qps.output;
  EXPECT_NE(qps.output.find("--qps needs --mode open"), std::string::npos)
      << qps.output;
  EXPECT_EQ(server_->stats().frames_in, 0u);
}

TEST_F(LoadgenTraceTest, DiurnalShapeModulatesTheOpenLoopAndConserves) {
  // The diurnal shape is an offered-rate modulation, so it only exists in
  // open-loop mode; accounting must conserve exactly as with --shape flat.
  const auto run = run_loadgen(port_arg() +
                               " --mode open --shape diurnal --period-ms 200"
                               " --qps 2000 --duration-ms 600 --connections 2"
                               " --items-max 500 --seed 11 --json");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"shape\":\"diurnal\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"conserved\":true"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"ok_by_epoch\""), std::string::npos)
      << run.output;
  // Static instance: every answer attributes epoch 0.
  EXPECT_NE(run.output.find("\"ok_by_epoch\":{\"0\":"), std::string::npos)
      << run.output;

  // The shape flag is rejected outside open-loop mode: closed loops have no
  // offered rate to modulate.
  const auto closed = run_loadgen(port_arg() +
                                  " --queries 10 --shape diurnal --json");
  EXPECT_NE(closed.exit_code, 0);
}

TEST_F(LoadgenTraceTest, InvalidTenantIsAUsageError) {
  // --tenant obeys the one instance-id rule (util::valid_id) when flags are
  // parsed, so an id the wire would refuse never reaches the encoder.
  const auto long_id = run_loadgen(port_arg() + " --queries 10 --tenant " +
                                   std::string(65, 't'));
  EXPECT_EQ(long_id.exit_code, 1) << long_id.output;
  const auto slash = run_loadgen(port_arg() + " --queries 10 --tenant a/b");
  EXPECT_EQ(slash.exit_code, 1) << slash.output;
  EXPECT_EQ(server_->stats().frames_in, 0u);
}

/// A loopback peer that accepts every connection and resets it at once
/// (SO_LINGER 0): what a replica killed mid-run looks like to a client.
class DroppingPeer {
 public:
  DroppingPeer() {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listener_, 16) != 0 ||
        ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ADD_FAILURE() << "cannot listen on loopback";
    }
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] {
      while (true) {
        const int conn = ::accept(listener_, nullptr, nullptr);
        if (conn < 0) return;  // the listener was shut down
        const linger reset{1, 0};
        ::setsockopt(conn, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
        ::close(conn);
      }
    });
  }
  ~DroppingPeer() {
    ::shutdown(listener_, SHUT_RDWR);
    acceptor_.join();
    ::close(listener_);
  }
  DroppingPeer(const DroppingPeer&) = delete;
  DroppingPeer& operator=(const DroppingPeer&) = delete;
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int listener_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
};

TEST(LoadgenDroppingPeer, OpenLoopReportsTheLostConnectionAndExitsTwo) {
  // The sender's send() fails once the peer is gone; the open loop must
  // still join its drainer and report the failure, never abort.
  const DroppingPeer peer;
  const auto run = run_loadgen("--port " + std::to_string(peer.port()) +
                               " --mode open --qps 2000 --duration-ms 300"
                               " --json");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("error:"), std::string::npos) << run.output;
}

}  // namespace
}  // namespace lcaknap
