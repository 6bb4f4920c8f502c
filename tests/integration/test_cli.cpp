// Drives the lcaknap_cli binary end-to-end through std::system.  The binary
// path is injected by CMake as LCAKNAP_CLI_PATH.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/wire.h"

namespace {

#ifndef LCAKNAP_CLI_PATH
#error "LCAKNAP_CLI_PATH must be defined by the build"
#endif

const std::string kCli = LCAKNAP_CLI_PATH;

struct CommandResult {
  int exit_code;
  std::string output;
};

/// A temp-file path private to the running test.  gtest_discover_tests runs
/// every case as its own process, so under `ctest -j` cases run at the same
/// time; a file name shared between cases would let one case overwrite the
/// instance or read the output of another.
std::string test_temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "cli_" + info->name() + "_" + suffix;
}

CommandResult run(const std::string& args) {
  const std::string out_file = test_temp_path("out.txt");
  const std::string command = kCli + " " + args + " > " + out_file + " 2>&1";
  const int status = std::system(command.c_str());
  std::ifstream in(out_file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return {WEXITSTATUS(status), buffer.str()};
}

std::string temp_instance() { return test_temp_path("instance.txt"); }

TEST(Cli, GenerateSolveServeEvalPipeline) {
  const std::string path = temp_instance();
  const auto gen = run("generate --family needle --n 3000 --seed 5 --out " + path);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote 3000 items"), std::string::npos);

  const auto solve = run("solve --in " + path + " --method greedy");
  ASSERT_EQ(solve.exit_code, 0) << solve.output;
  EXPECT_NE(solve.output.find("1/2-approximation"), std::string::npos);

  const auto serve = run("serve --in " + path + " --eps 0.15 --items 0,1,2");
  ASSERT_EQ(serve.exit_code, 0) << serve.output;
  EXPECT_NE(serve.output.find("answered 3 queries"), std::string::npos);

  const auto eval = run("eval --in " + path + " --replicas 3 --queries 50 --eps 0.15");
  ASSERT_EQ(eval.exit_code, 0) << eval.output;
  EXPECT_NE(eval.output.find("pairwise agreement"), std::string::npos);
  EXPECT_NE(eval.output.find("3/3"), std::string::npos);  // feasible runs
}

TEST(Cli, FptasSolveWorks) {
  const std::string path = temp_instance();
  ASSERT_EQ(run("generate --family uncorrelated --n 120 --out " + path).exit_code, 0);
  const auto solve = run("solve --in " + path + " --method fptas --eps 0.2");
  ASSERT_EQ(solve.exit_code, 0) << solve.output;
  EXPECT_NE(solve.output.find("(1 - 0.20)"), std::string::npos);  // guarantee note
}

TEST(Cli, UsageErrorsExitOne) {
  EXPECT_EQ(run("").exit_code, 1);
  EXPECT_EQ(run("frobnicate").exit_code, 1);
  EXPECT_EQ(run("generate --n 10").exit_code, 1);                   // missing family
  EXPECT_EQ(run("generate --family bogus --n 10").exit_code, 1);    // unknown family
  const std::string path = temp_instance();
  ASSERT_EQ(run("generate --family needle --n 100 --out " + path).exit_code, 0);
  EXPECT_EQ(run("serve --in " + path).exit_code, 1);                // missing --items
  EXPECT_EQ(run("solve --in " + path + " --method warp").exit_code, 1);
}

TEST(Cli, RuntimeErrorsExitTwo) {
  EXPECT_EQ(run("solve --in /nonexistent/file --method greedy").exit_code, 2);
}

TEST(Cli, ServeAllSummarizes) {
  const std::string path = temp_instance();
  ASSERT_EQ(run("generate --family needle --n 800 --out " + path).exit_code, 0);
  const auto serve = run("serve --in " + path + " --eps 0.2 --all");
  ASSERT_EQ(serve.exit_code, 0) << serve.output;
  EXPECT_NE(serve.output.find("answered 800 queries"), std::string::npos);
}

TEST(Cli, HelpListsEveryCommandAndFlag) {
  // Help audit: every command and flag the CLI has grown (serving engine,
  // chaos/resilience, metrics, snapshots) must appear in the usage text, so
  // an operator can discover it without reading the source.  Update this
  // pinned list whenever a flag is added — that is the point of the test.
  const auto help = run("");  // no command prints usage (exit 1)
  ASSERT_EQ(help.exit_code, 1);
  const char* const expected[] = {
      "generate", "solve", "serve", "eval", "serve-engine",
      "snapshot <save|load|verify>", "verify-log",
      // generate / solve / serve / eval
      "--family", "--n", "--seed", "--out", "--in", "--method", "--eps",
      "--items", "--all", "--flaky", "--retries", "--replicas", "--queries",
      // serve-engine workload + engine
      "--shape", "--zipf-s", "--hot-frac", "--hot-items", "--workers",
      "--queue-cap", "--batch-max", "--linger-us", "--cache-cap",
      "--cache-shards", "--paranoia-every", "--deadline-us",
      // resilience stack
      "--chaos-plan", "--chaos-seed", "--retry-attempts", "--backoff-us",
      "--backoff-max-us", "--retry-budget", "--breaker", "--degrade",
      // warm-up + persistence
      "--warmup-threads", "--tape", "--snap", "--snapshot-dir",
      "--instance-id",
      // certification
      "--certify", "--cert-dir", "--log", "--sample",
      // network front-end
      "--listen", "--tenants", "--max-conns", "--conn-inflight",
      "--tenant-inflight", "--store-capacity", "--chaos-tenant",
      "--allow-shutdown", "--replica-id",
      // dynamic instances
      "--updates", "--update-interval-ms", "--verify-epochs",
      // global
      "--metrics",
  };
  for (const char* const needle : expected) {
    EXPECT_NE(help.output.find(needle), std::string::npos)
        << "usage text is missing: " << needle;
  }
}

TEST(Cli, SnapshotSaveLoadVerifyRoundTrip) {
  const std::string path = temp_instance();
  const std::string snap = ::testing::TempDir() + "cli_state.snap";
  std::remove(snap.c_str());
  ASSERT_EQ(run("generate --family uncorrelated --n 2000 --seed 4 --out " +
                path).exit_code, 0);

  const auto save = run("snapshot save --in " + path +
                        " --eps 0.2 --seed 9 --snap " + snap);
  ASSERT_EQ(save.exit_code, 0) << save.output;
  EXPECT_NE(save.output.find("digest"), std::string::npos);

  const auto load = run("snapshot load --in " + path +
                        " --eps 0.2 --seed 9 --snap " + snap);
  ASSERT_EQ(load.exit_code, 0) << load.output;
  EXPECT_NE(load.output.find("verified"), std::string::npos);

  const auto verify = run("snapshot verify --in " + path +
                          " --eps 0.2 --seed 9 --snap " + snap);
  ASSERT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find("MATCH"), std::string::npos);

  // A different warm-up tape is a different serving context: the fingerprint
  // check refuses the snapshot and the command fails loudly.
  const auto mismatch = run("snapshot verify --in " + path +
                            " --eps 0.2 --seed 9 --tape 99 --snap " + snap);
  EXPECT_EQ(mismatch.exit_code, 2) << mismatch.output;
  EXPECT_NE(mismatch.output.find("mismatch"), std::string::npos);

  // Missing action / unknown action are usage errors.
  EXPECT_EQ(run("snapshot --in " + path).exit_code, 1);
  EXPECT_EQ(run("snapshot frobnicate --in " + path + " --snap " + snap)
                .exit_code, 1);
}

TEST(Cli, CertifyThenVerifyLogRoundTrip) {
  const std::string path = temp_instance();
  const std::string snap = ::testing::TempDir() + "cli_cert.snap";
  const std::string certs = ::testing::TempDir() + "cli_certs";
  const std::string context = " --in " + path + " --eps 0.2 --seed 9 --tape 3";
  std::remove(snap.c_str());
  std::system(("rm -rf " + certs).c_str());
  ASSERT_EQ(run("generate --family uncorrelated --n 2000 --seed 4 --out " +
                path).exit_code, 0);

  // The certified-tenant walkthrough from docs/PERSISTENCE.md: snapshot the
  // warm state, serve with certification on, audit the log offline.
  ASSERT_EQ(run("snapshot save" + context + " --snap " + snap).exit_code, 0);
  const auto serve = run("serve-engine" + context +
                         " --queries 2000 --workers 2 --certify --cert-dir " +
                         certs);
  ASSERT_EQ(serve.exit_code, 0) << serve.output;
  EXPECT_NE(serve.output.find("certificates written"), std::string::npos);

  const auto verify = run("verify-log --log " + certs + " --snap " + snap);
  ASSERT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find("CLEAN"), std::string::npos);
  EXPECT_NE(verify.output.find("oracle queries"), std::string::npos);

  const auto sampled = run("verify-log --log " + certs + " --snap " + snap +
                           " --sample 7");
  ASSERT_EQ(sampled.exit_code, 0) << sampled.output;

  // Flip one byte in the middle of the sealed segment: the audit must turn
  // REJECTED with exit 2 and a typed reason.
  std::string segment;
  for (const auto& entry : std::filesystem::directory_iterator(certs)) {
    if (entry.path().extension() == ".seg") segment = entry.path().string();
  }
  ASSERT_FALSE(segment.empty());
  {
    std::fstream file(segment,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(200);
    const char corrupted = '\x5A';
    file.write(&corrupted, 1);
  }
  const auto rejected = run("verify-log --log " + certs + " --snap " + snap);
  EXPECT_EQ(rejected.exit_code, 2) << rejected.output;
  EXPECT_NE(rejected.output.find("REJECTED"), std::string::npos);
  EXPECT_NE(rejected.output.find("corrupt"), std::string::npos);

  // Flag discipline: --cert-dir without --certify is a usage error, as is
  // verify-log without its inputs.
  EXPECT_EQ(run("serve-engine" + context + " --queries 10 --cert-dir " +
                certs).exit_code, 1);
  EXPECT_EQ(run("verify-log --snap " + snap).exit_code, 1);
  EXPECT_EQ(run("verify-log --log " + certs).exit_code, 1);
}

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One `serve --listen` child process: started in the background through the
/// shell, its ephemeral port parsed from the announced "listening on" line.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& flags, const std::string& tag) {
    start(flags, tag);  // gtest fatal assertions cannot live in a ctor body
  }

 private:
  void start(const std::string& flags, const std::string& tag) {
    log_ = ::testing::TempDir() + "cli_server_" + tag + ".log";
    std::remove(log_.c_str());
    const std::string command =
        kCli + " serve " + flags + " > " + log_ + " 2>&1 &";
    ASSERT_EQ(std::system(command.c_str()), 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    const std::string needle = "listening on 127.0.0.1:";
    while (std::chrono::steady_clock::now() < deadline) {
      const std::string log = read_all(log_);
      const auto at = log.find(needle);
      if (at != std::string::npos && log.find('\n', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::stoul(log.substr(at + needle.size())));
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "server never announced its port; log:\n" << read_all(log_);
  }

 public:
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Waits for the post-shutdown summary (flushed at process exit).
  std::string final_output() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      const std::string log = read_all(log_);
      if (log.find("wire conservation") != std::string::npos) return log;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return read_all(log_);
  }

 private:
  std::string log_;
  std::uint16_t port_ = 0;
};

TEST(Cli, TwoServerProcessesAnswerByteIdentically) {
  // Lemma 4.9 at wire granularity: two independent processes, warmed from
  // the same instance and seeds, must answer an identical serial query
  // stream with *byte-identical* response frames — the property that makes
  // replica fan-out behind a load balancer sound.
  const std::string path = temp_instance();
  ASSERT_EQ(run("generate --family uncorrelated --n 2000 --seed 4 --out " +
                path).exit_code, 0);
  const std::string flags = "--listen 0 --in " + path +
                            " --instance-id t1 --eps 0.2 --seed 9 --tape 3"
                            " --workers 2 --allow-shutdown";
  ServerProcess first(flags, "replica_a");
  ServerProcess second(flags, "replica_b");
  ASSERT_NE(first.port(), 0);
  ASSERT_NE(second.port(), 0);

  lcaknap::net::Client client_a("127.0.0.1", first.port());
  lcaknap::net::Client client_b("127.0.0.1", second.port());
  std::size_t ok = 0;
  for (std::uint64_t q = 0; q < 400; ++q) {
    lcaknap::net::RequestFrame frame;
    frame.request_id = q;
    frame.item = (q * 37) % 2'000;
    frame.tenant = "t1";
    std::string raw_a;
    std::string raw_b;
    const auto response_a = client_a.call(frame, &raw_a);
    const auto response_b = client_b.call(frame, &raw_b);
    ASSERT_EQ(raw_a, raw_b) << "replicas diverged at query " << q;
    if (response_a.status == lcaknap::net::WireStatus::kOk) ++ok;
  }
  EXPECT_GT(ok, 0u) << "the comparison must cover served answers";

  // Gated remote shutdown; both exit summaries must report conservation.
  lcaknap::net::RequestFrame shutdown;
  shutdown.flags = lcaknap::net::RequestFrame::kFlagShutdown;
  shutdown.tenant = "t1";
  EXPECT_EQ(client_a.call(shutdown).status,
            lcaknap::net::WireStatus::kShuttingDown);
  EXPECT_EQ(client_b.call(shutdown).status,
            lcaknap::net::WireStatus::kShuttingDown);
  EXPECT_NE(first.final_output().find("HOLDS"), std::string::npos);
  EXPECT_NE(second.final_output().find("HOLDS"), std::string::npos);
}

TEST(Cli, ServeListenIsolatesAChaosTenant) {
  // The multi-tenant runbook path end-to-end: tenant "noisy" runs under a
  // scripted brownout while tenant "calm" must keep serving ok answers that
  // match a clean single-tenant replica of the same instance.
  const std::string calm = ::testing::TempDir() + "cli_calm.txt";
  const std::string noisy = ::testing::TempDir() + "cli_noisy.txt";
  ASSERT_EQ(run("generate --family uncorrelated --n 1500 --seed 6 --out " +
                calm).exit_code, 0);
  ASSERT_EQ(run("generate --family needle --n 1200 --seed 7 --out " +
                noisy).exit_code, 0);
  const std::string common = " --eps 0.2 --seed 9 --tape 3 --workers 2"
                             " --allow-shutdown";
  ServerProcess reference("--listen 0 --tenants calm=" + calm + common,
                          "reference");
  ServerProcess stormy("--listen 0 --tenants calm=" + calm + ",noisy=" + noisy +
                           " --chaos-tenant noisy"
                           " --chaos-plan brownout:3600000:fail=0.3,lat=50..200" +
                           common,
                       "stormy");

  lcaknap::net::Client ref_client("127.0.0.1", reference.port());
  lcaknap::net::Client storm_client("127.0.0.1", stormy.port());
  lcaknap::net::Client noise_client("127.0.0.1", stormy.port());
  std::thread noise([&] {
    for (std::uint64_t q = 0; q < 200; ++q) {
      lcaknap::net::RequestFrame frame;
      frame.request_id = q;
      frame.item = q % 1'200;
      frame.tenant = "noisy";
      (void)noise_client.call(frame);
    }
  });
  for (std::uint64_t q = 0; q < 200; ++q) {
    lcaknap::net::RequestFrame frame;
    frame.request_id = q;
    frame.item = (q * 13) % 1'500;
    frame.tenant = "calm";
    std::string raw_ref;
    std::string raw_storm;
    const auto ref_response = ref_client.call(frame, &raw_ref);
    ASSERT_EQ(ref_response.status, lcaknap::net::WireStatus::kOk);
    (void)storm_client.call(frame, &raw_storm);
    ASSERT_EQ(raw_ref, raw_storm)
        << "chaos on tenant 'noisy' leaked into tenant 'calm' at query " << q;
  }
  noise.join();

  lcaknap::net::RequestFrame shutdown;
  shutdown.flags = lcaknap::net::RequestFrame::kFlagShutdown;
  shutdown.tenant = "calm";
  (void)ref_client.call(shutdown);
  (void)storm_client.call(shutdown);
  EXPECT_NE(stormy.final_output().find("HOLDS"), std::string::npos);
}

TEST(Cli, ServeEngineRestoresFromSnapshotDir) {
  const std::string path = temp_instance();
  const std::string dir = ::testing::TempDir() + "cli_snapdir";
  const std::string common = " --in " + path +
                             " --eps 0.2 --seed 6 --queries 500 "
                             "--workers 2 --snapshot-dir " + dir +
                             " --instance-id tenant1";
  std::remove((dir + "/tenant1.snap").c_str());
  ASSERT_EQ(run("generate --family uncorrelated --n 2000 --seed 6 --out " +
                path).exit_code, 0);

  const auto cold = run("serve-engine" + common);
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_NE(cold.output.find("live warm-up (persisted)"), std::string::npos);

  const auto restart = run("serve-engine" + common);
  ASSERT_EQ(restart.exit_code, 0) << restart.output;
  EXPECT_NE(restart.output.find("restored from snapshot"), std::string::npos);

  // Both processes must report the same warm-state digest: the restored
  // state is byte-identical to the one the first process warmed live.
  const auto digest_of = [](const std::string& output) {
    const auto label = output.find("warm state digest");
    const auto start = output.find_first_of("0123456789", label);
    return output.substr(start,
                         output.find_first_not_of("0123456789", start) - start);
  };
  EXPECT_EQ(digest_of(cold.output), digest_of(restart.output));
}

TEST(Cli, ServeEngineReplaysAnEpochLog) {
  const std::string path = temp_instance();
  const std::string log = ::testing::TempDir() + "cli_updates.log";
  ASSERT_EQ(run("generate --family uncorrelated --n 2000 --seed 8 --out " +
                path).exit_code, 0);
  {
    // Hand-authored log using the documented `seal auto` escape hatch: one
    // delta-eligible weight-only batch, one insert that must fall back.
    std::ofstream out(log);
    out << "# two epochs of churn\n"
        << "epoch 1\n"
        << "weight 3 5\n"
        << "weight 40 2\n"
        << "seal auto\n"
        << "epoch 2\n"
        << "insert 17 4\n"
        << "seal auto\n";
  }

  const auto replay = run("serve-engine --in " + path +
                          " --eps 0.25 --queries 2000 --workers 2"
                          " --verify-epochs --updates " + log);
  ASSERT_EQ(replay.exit_code, 0) << replay.output;
  // One delta advance, one re-warm, and the engine ends on epoch 2.
  EXPECT_NE(replay.output.find("2 (1 / 1)"), std::string::npos)
      << replay.output;
  EXPECT_NE(replay.output.find("ok answers by served epoch"),
            std::string::npos);
  const auto final_epoch = replay.output.find("final epoch");
  ASSERT_NE(final_epoch, std::string::npos);
  EXPECT_NE(replay.output.find("2", final_epoch), std::string::npos);

  // A corrupted seal is a typed parse failure with a pinned location
  // (EpochLogParseError is an invalid_argument, so it exits 1 like every
  // other malformed-input error), never a served run.
  {
    std::ofstream out(log);
    out << "epoch 1\nweight 3 5\nseal 0000000000000000\n";
  }
  const auto bad = run("serve-engine --in " + path + " --updates " + log);
  EXPECT_EQ(bad.exit_code, 1) << bad.output;
  EXPECT_NE(bad.output.find("epoch log:"), std::string::npos) << bad.output;
  std::remove(log.c_str());
}

}  // namespace
