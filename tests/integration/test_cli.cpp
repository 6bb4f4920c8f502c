// Drives the lcaknap_cli and lcaknap_verify_log binaries end-to-end through
// std::system.  The binary paths are injected by CMake as LCAKNAP_CLI_PATH
// and LCAKNAP_VERIFY_LOG_PATH.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
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

#if !defined(LCAKNAP_CLI_PATH) || !defined(LCAKNAP_VERIFY_LOG_PATH)
#error "LCAKNAP_CLI_PATH and LCAKNAP_VERIFY_LOG_PATH must be defined by the build"
#endif

const std::string kCli = LCAKNAP_CLI_PATH;
const std::string kVerifyLog = LCAKNAP_VERIFY_LOG_PATH;

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

CommandResult run_binary(const std::string& binary, const std::string& args) {
  const std::string out_file = test_temp_path("out.txt");
  const std::string command = binary + " " + args + " > " + out_file + " 2>&1";
  const int status = std::system(command.c_str());
  std::ifstream in(out_file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return {WEXITSTATUS(status), buffer.str()};
}

CommandResult run(const std::string& args) { return run_binary(kCli, args); }

std::string temp_instance() { return test_temp_path("instance.txt"); }

/// The value column of the report-table row labelled `label` ("" if the
/// output has no such row).  A label is followed by at least two spaces of
/// padding, so "requests" does not match "requests served from cache".
std::string row_value(const std::string& output, const std::string& label) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(label + "  ", 0) != 0) continue;
    const auto begin = line.find_first_not_of(' ', label.size());
    const auto end = line.find_last_not_of(' ');
    return begin == std::string::npos ? "" : line.substr(begin, end - begin + 1);
  }
  return "";
}

/// serve-engine's "ok / overloaded / deadline / degraded / error" counts.
std::vector<std::uint64_t> outcome_counts(const std::string& output) {
  std::istringstream row(
      row_value(output, "ok / overloaded / deadline / degraded / error"));
  std::vector<std::uint64_t> counts;
  std::string token;
  while (row >> token) {
    if (token != "/") counts.push_back(std::stoull(token));
  }
  return counts;
}

TEST(Cli, GenerateSolveServeEvalPipeline) {
  const std::string path = temp_instance();
  const auto gen = run("generate --family needle --n 3000 --seed 5 --out " + path);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote 3000 items"), std::string::npos);

  const auto solve = run("solve --in " + path + " --method greedy");
  ASSERT_EQ(solve.exit_code, 0) << solve.output;
  EXPECT_NE(solve.output.find("1/2-approximation"), std::string::npos);

  const auto serve = run("serve-engine --in " + path + " --eps 0.15 --items 0,1,2");
  ASSERT_EQ(serve.exit_code, 0) << serve.output;
  // One "item i: yes|no" line per listed item, in order, before the report.
  std::size_t previous = 0;
  for (const std::string item : {"0", "1", "2"}) {
    const auto yes = serve.output.find("item " + item + ": yes\n");
    const auto no = serve.output.find("item " + item + ": no\n");
    ASSERT_NE(yes == std::string::npos, no == std::string::npos) << serve.output;
    EXPECT_GE(std::min(yes, no), previous) << serve.output;
    previous = std::min(yes, no);
  }
  EXPECT_LT(previous, serve.output.find("== serve-engine")) << serve.output;
  EXPECT_EQ(row_value(serve.output, "requests"), "3") << serve.output;
  EXPECT_EQ(outcome_counts(serve.output), (std::vector<std::uint64_t>{3, 0, 0, 0, 0}))
      << serve.output;

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
  const auto no_listen = run("serve --in " + path);                 // missing --listen
  EXPECT_EQ(no_listen.exit_code, 1);
  EXPECT_NE(no_listen.output.find("serve needs --listen"), std::string::npos)
      << no_listen.output;
  EXPECT_EQ(run("solve --in " + path + " --method warp").exit_code, 1);
}

TEST(Cli, RuntimeErrorsExitTwo) {
  EXPECT_EQ(run("solve --in /nonexistent/file --method greedy").exit_code, 2);
}

TEST(Cli, ServeAllSummarizes) {
  const std::string path = temp_instance();
  ASSERT_EQ(run("generate --family needle --n 800 --out " + path).exit_code, 0);
  const auto serve = run("serve-engine --in " + path + " --eps 0.2 --all");
  ASSERT_EQ(serve.exit_code, 0) << serve.output;
  // --all summarizes: no per-item lines, every item answered once.
  EXPECT_EQ(serve.output.find("item 0: "), std::string::npos) << serve.output;
  EXPECT_EQ(row_value(serve.output, "requests"), "800") << serve.output;
  EXPECT_EQ(outcome_counts(serve.output),
            (std::vector<std::uint64_t>{800, 0, 0, 0, 0}))
      << serve.output;
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
      "snapshot <save|load|verify>", "lcaknap_verify_log",
      // generate / solve / serve / eval
      "--family", "--n", "--seed", "--out", "--in", "--method", "--eps",
      "--items", "--all", "--replicas", "--queries",
      // serve-engine workload + engine
      "--shape", "--zipf-s", "--hot-frac", "--hot-items", "--workload-seed",
      "--workers",
      "--queue-cap", "--batch-max", "--linger-us", "--cache-cap",
      "--cache-shards", "--paranoia-every", "--deadline-us",
      // resilience stack
      "--chaos-plan", "--chaos-seed", "--retry-attempts", "--backoff-us",
      "--backoff-max-us", "--retry-budget", "--breaker", "--degrade",
      // warm-up + persistence
      "--warmup-threads", "--tape", "--snap", "--snapshot-dir",
      "--instance-id",
      // certification
      "--certify", "--cert-dir", "--cert-segment-records",
      // network front-end
      "--listen", "--tenants", "--max-conns", "--conn-inflight",
      "--tenant-inflight", "--chaos-tenant", "--allow-shutdown", "--replica-id",
      // dynamic instances
      "--updates", "--update-interval-ms", "--verify-epochs",
      // global
      "--metrics",
  };
  for (const char* const needle : expected) {
    EXPECT_NE(help.output.find(needle), std::string::npos)
        << "usage text is missing: " << needle;
  }
  // The one-shot serve path and its fault flags are gone, and so are the
  // in-CLI certificate auditor (lcaknap_verify_log is the one auditor) and
  // the store capacity flag (spelled in two pieces so a search of the tree
  // for the removed flag finds no use of it).
  for (const char* const removed :
       {"--flaky", "--retries", "verify-log", "--store-" "capacity"}) {
    EXPECT_EQ(help.output.find(removed), std::string::npos)
        << "usage text still lists: " << removed;
  }
}

TEST(Cli, UnknownFlagsAndMalformedNumbersExitOne) {
  // Each command accepts only its own flags, and a number must parse as a
  // whole token: none of these may run on a silently substituted default.
  const std::string path = temp_instance();
  ASSERT_EQ(run("generate --family needle --n 200 --out " + path).exit_code, 0);
  const std::string engine = "serve-engine --in " + path + " --eps 0.2 --queries 100";
  for (const std::string& flags :
       {std::string(" --lingr-us 0"), std::string(" --flaky 0.1"),
        std::string(" --tape 7abc"), std::string(" --workers -1"),
        std::string(" --zipf-s 1.1x"), std::string(" --all=yes")}) {
    const auto result = run(engine + flags);
    EXPECT_EQ(result.exit_code, 1) << flags << "\n" << result.output;
    EXPECT_NE(result.output.find("usage error"), std::string::npos) << result.output;
  }
  // --items / --all replace the generated trace; its shape flags conflict.
  EXPECT_EQ(run("serve-engine --in " + path + " --items 0,1 --queries 10").exit_code, 1);
  EXPECT_EQ(run("serve-engine --in " + path + " --all --shape zipf").exit_code, 1);
  EXPECT_EQ(run("serve-engine --in " + path + " --items 0,1x").exit_code, 1);
  EXPECT_EQ(run("solve --in " + path + " --methd greedy").exit_code, 1);
}

TEST(Cli, HexSeedIsTheSameSeedAsItsDecimal) {
  // Lemma 4.9 needs replicas to share the seed as written: 0x5EED and
  // 24301 must name the same warm state (the fleet tool passes decimal).
  const std::string path = temp_instance();
  ASSERT_EQ(run("generate --family uncorrelated --n 2000 --seed 4 --out " +
                path).exit_code, 0);
  const auto digest_for = [&path](const std::string& seed) {
    const auto save = run("snapshot save --in " + path + " --eps 0.2 --seed " +
                          seed + " --snap " + test_temp_path(seed + ".snap"));
    EXPECT_EQ(save.exit_code, 0) << save.output;
    return row_value(save.output, "digest");
  };
  const auto hex = digest_for("0x5EED");
  ASSERT_FALSE(hex.empty());
  EXPECT_EQ(hex, digest_for("24301"));
  EXPECT_NE(hex, digest_for("0"));
}

TEST(Cli, VerifyLogToolRejectsUnknownFlags) {
  // The standalone auditor shares the parser: a misspelled flag is a usage
  // error before any file is opened.
  const auto typo = run_binary(kVerifyLog, "--log /nonexistent --snap /nonexistent"
                                           " --sampel 3");
  EXPECT_EQ(typo.exit_code, 1) << typo.output;
  EXPECT_NE(typo.output.find("--sampel"), std::string::npos) << typo.output;
  EXPECT_EQ(run_binary(kVerifyLog, "--log /nonexistent --snap /nonexistent"
                                   " --sample 3x").exit_code, 1);
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

  const auto verify = run_binary(kVerifyLog, "--log " + certs + " --snap " + snap);
  ASSERT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find("CLEAN"), std::string::npos);
  EXPECT_NE(verify.output.find("oracle queries"), std::string::npos);

  const auto sampled = run_binary(kVerifyLog, "--log " + certs + " --snap " +
                                                 snap + " --sample 7");
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
  const auto rejected = run_binary(kVerifyLog, "--log " + certs + " --snap " + snap);
  EXPECT_EQ(rejected.exit_code, 2) << rejected.output;
  EXPECT_NE(rejected.output.find("REJECTED"), std::string::npos);
  EXPECT_NE(rejected.output.find("corrupt"), std::string::npos);

  // Flag discipline: --cert-dir without --certify is a usage error, as is
  // the auditor without its inputs.
  EXPECT_EQ(run("serve-engine" + context + " --queries 10 --cert-dir " +
                certs).exit_code, 1);
  EXPECT_EQ(run_binary(kVerifyLog, "--snap " + snap).exit_code, 1);
  EXPECT_EQ(run_binary(kVerifyLog, "--log " + certs).exit_code, 1);
}

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One `serve --listen` child process: started in the background through the
/// shell, its ephemeral port parsed from the announced "listening on" line.
/// The shell appends "[exit N]" to the log when the process ends.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& flags, const std::string& tag) {
    start(flags, tag);  // gtest fatal assertions cannot live in a ctor body
  }

 private:
  static constexpr const char* kExitMarker = "[exit ";

  void start(const std::string& flags, const std::string& tag) {
    log_ = ::testing::TempDir() + "cli_server_" + tag + ".log";
    std::remove(log_.c_str());
    const std::string command = "(" + kCli + " serve " + flags + " > " + log_ +
                                " 2>&1; echo \"" + kExitMarker + "$?]\" >> " +
                                log_ + ") &";
    ASSERT_EQ(std::system(command.c_str()), 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    const std::string needle = "listening on 127.0.0.1:";
    while (std::chrono::steady_clock::now() < deadline) {
      const std::string log = read_all(log_);
      // The usage text quotes the announcement with "PORT" for the digits.
      const auto at = log.find(needle);
      if (at != std::string::npos && log.find('\n', at) != std::string::npos &&
          std::isdigit(static_cast<unsigned char>(log[at + needle.size()]))) {
        port_ = static_cast<std::uint16_t>(
            std::stoul(log.substr(at + needle.size())));
        return;
      }
      if (log.find(kExitMarker) != std::string::npos) return;  // never listened
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "server neither announced its port nor exited; log:\n"
           << read_all(log_);
  }

 public:
  /// The announced port; 0 if the process exited without listening.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Waits for the process to exit and returns everything it printed.
  std::string final_output() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      const std::string log = read_all(log_);
      if (log.find(kExitMarker) != std::string::npos) return log;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return read_all(log_);
  }

  /// The process's exit code (-1 if it has not exited within the wait).
  int exit_code() {
    const std::string log = final_output();
    const auto at = log.rfind(kExitMarker);
    if (at == std::string::npos) return -1;
    return std::stoi(log.substr(at + std::string(kExitMarker).size()));
  }

 private:
  std::string log_;
  std::uint16_t port_ = 0;
};

/// Runs `serve <flags>` to its end: a server that listens is shut down at
/// once through the gated shutdown frame.  Returns the exit code.
int serve_exit_code(const std::string& flags, const std::string& tag) {
  ServerProcess server(flags + " --listen 0 --allow-shutdown", tag);
  if (server.port() != 0) {
    lcaknap::net::Client client("127.0.0.1", server.port());
    lcaknap::net::RequestFrame shutdown;
    shutdown.flags = lcaknap::net::RequestFrame::kFlagShutdown;
    shutdown.tenant = "default";
    (void)client.call(shutdown);
  }
  return server.exit_code();
}

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
  // The served state after both advances, pinned: the checks above compare
  // the replay with fresh warm-ups, which a change to every warm-up alike
  // would keep passing.
  EXPECT_EQ(row_value(replay.output, "final warm-state digest"),
            "11114698376156734686")
      << replay.output;

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

TEST(Cli, ServeEngineUpdatesHonoursEngineFlags) {
  // An epoched replay runs through the same engine configuration as a
  // static one: a 1 us deadline sheds requests as deadline, and flags that
  // cannot apply to an epoched instance are usage errors, never ignored.
  const std::string path = temp_instance();
  const std::string log = test_temp_path("updates.log");
  ASSERT_EQ(run("generate --family uncorrelated --n 2000 --seed 8 --out " +
                path).exit_code, 0);
  {
    std::ofstream out(log);
    out << "epoch 1\nweight 3 5\nseal auto\n";
  }
  const std::string replay = "serve-engine --in " + path +
                             " --eps 0.25 --queries 2000 --workers 2 --updates " + log;
  const auto shed = run(replay + " --deadline-us 1");
  ASSERT_EQ(shed.exit_code, 0) << shed.output;
  const auto counts = outcome_counts(shed.output);
  ASSERT_EQ(counts.size(), 5u) << shed.output;
  EXPECT_GT(counts[2], 0u) << shed.output;  // deadline
  EXPECT_EQ(counts[0] + counts[2], 2000u) << shed.output;
  EXPECT_NE(shed.output.find("epochs applied"), std::string::npos) << shed.output;

  const auto breaker = run(replay + " --breaker");
  EXPECT_EQ(breaker.exit_code, 1) << breaker.output;
  EXPECT_NE(breaker.output.find("--breaker"), std::string::npos) << breaker.output;
  std::remove(log.c_str());
}

TEST(Cli, ServeListenUpdatesWarmsEpochZeroOnce) {
  // serve --listen --updates: the tenant's EpochedState warms epoch 0 once,
  // and that run is the tenant's warm state, so the store neither misses
  // nor warms; the applier then advances the live server through every
  // epoch of the log.
  const std::string path = temp_instance();
  const std::string log = test_temp_path("updates.log");
  ASSERT_EQ(run("generate --family uncorrelated --n 2000 --seed 8 --out " +
                path).exit_code, 0);
  {
    std::ofstream out(log);
    out << "epoch 1\nweight 3 5\nweight 40 2\nseal auto\n"
        << "epoch 2\ninsert 17 4\nseal auto\n";
  }
  const std::string instance = "--in " + path + " --eps 0.25 --updates " + log;
  ServerProcess server("--listen 0 " + instance +
                           " --workers 2 --update-interval-ms 50"
                           " --allow-shutdown --metrics=prom",
                       "updates");
  ASSERT_NE(server.port(), 0) << server.final_output();

  lcaknap::net::Client client("127.0.0.1", server.port());
  std::uint64_t served_epoch = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (std::uint64_t q = 0;
       served_epoch < 2 && std::chrono::steady_clock::now() < deadline; ++q) {
    lcaknap::net::RequestFrame frame;
    frame.request_id = q;
    frame.item = (q * 37) % 2'000;
    frame.tenant = "default";
    const auto response = client.call(frame);
    ASSERT_EQ(response.status, lcaknap::net::WireStatus::kOk) << "query " << q;
    served_epoch = std::max(served_epoch, response.epoch_id);
  }
  EXPECT_EQ(served_epoch, 2u) << "no response carried the log's last epoch";

  lcaknap::net::RequestFrame shutdown;
  shutdown.flags = lcaknap::net::RequestFrame::kFlagShutdown;
  shutdown.tenant = "default";
  (void)client.call(shutdown);
  const std::string output = server.final_output();
  EXPECT_EQ(server.exit_code(), 0) << output;
  EXPECT_NE(output.find("\nstore_misses_total 0\n"), std::string::npos)
      << output;
  EXPECT_NE(output.find("\nstore_hydrations_total{source=\"warmup\"} 0\n"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("\ndyn_epoch 2\n"), std::string::npos) << output;
  EXPECT_EQ(row_value(output, "warm tenants"), "default") << output;
  EXPECT_EQ(row_value(output, "wire conservation"), "HOLDS") << output;

  // A snapshot holds no delta trace, so an epoched tenant cannot warm from
  // one: the pair is a usage error, not an ignored flag.
  EXPECT_EQ(serve_exit_code(instance + " --snapshot-dir " +
                                test_temp_path("snaps"),
                            "updates_snapshot_dir"),
            1);
}

TEST(Cli, FlagPairsWithoutTheirPartnerExitOne) {
  // A flag that acts only together with another, or beside one that
  // replaces it, is a usage error before any work starts — never accepted
  // and silently ignored.
  const std::string path = temp_instance();
  ASSERT_EQ(run("generate --family needle --n 300 --out " + path).exit_code, 0);
  const std::string engine =
      "serve-engine --in " + path + " --eps 0.3 --queries 10";
  for (const std::string flag :
       {" --verify-epochs", " --chaos-seed 5", " --retry-attempts 3",
        " --backoff-us 10", " --backoff-max-us 100", " --retry-budget 0.5",
        " --instance-id t1", " --cert-segment-records 5"}) {
    const auto result = run(engine + flag);
    EXPECT_EQ(result.exit_code, 1) << flag << "\n" << result.output;
    EXPECT_NE(result.output.find("usage error"), std::string::npos)
        << result.output;
  }
  int tag = 0;
  for (const std::string& flags :
       {"--in " + path + " --update-interval-ms 50",
        "--in " + path + " --chaos-seed 5",
        "--tenants default=" + path + " --in " + path,
        "--tenants default=" + path + " --instance-id other"}) {
    EXPECT_EQ(serve_exit_code(flags + " --eps 0.3",
                              "pair_" + std::to_string(tag++)),
              1)
        << flags;
  }
}

}  // namespace
