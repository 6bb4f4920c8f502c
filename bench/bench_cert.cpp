// E19 — answer certification: serving overhead and offline verify throughput.
//
// The claim of docs/CERTIFICATES.md, measured: emitting a 48-byte CRC-sealed
// certificate per answer is cheap enough to leave on in production, and the
// offline audit is fast enough to re-check whole logs routinely.
//
// Three tables:
//  1. serving overhead: the E15 hotspot workload replayed through two
//     engines sharing one warm state — certify off vs certify on — with the
//     median wall-time delta.  Prediction: <= 5% overhead (hard failure:
//     exit 1);
//  2. offline verify throughput: a certificate log re-validated from the
//     snapshot state alone, median over reps.  Predictions: >= 100k
//     records/s, zero oracle queries during verification, every record
//     accepted (all hard failures);
//  3. the written log's shape (records, segments, bytes) for context.
//
// Flags: --smoke shrinks every budget for CI; --json PATH writes a one-object
// JSON summary (default BENCH_cert.json when --json has no value).

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cert/cert_log.h"
#include "cert/certificate.h"
#include "cert/verifier.h"
#include "core/lca_kp.h"
#include "core/workload.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "store/snapshot.h"
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
                                                          : "BENCH_cert.json";
    } else {
      std::cerr << "usage: bench_cert [--smoke] [--json [PATH]]\n";
      return 2;
    }
  }

  std::cout << "E19: answer certification — serving overhead + verify throughput"
            << (smoke ? " [smoke]" : "") << "\n\n";

  const auto dir = std::filesystem::temp_directory_path() / "lcaknap_bench_cert";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const std::size_t n = smoke ? 20'000 : 100'000;
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, n, 3);
  const oracle::MaterializedAccess access(inst);
  core::LcaKpConfig config;
  config.eps = 0.2;
  config.seed = 0xE19;
  config.quantile_samples = smoke ? 400'000 : 2'000'000;
  const core::LcaKp lca(access, config);
  constexpr std::uint64_t kTape = 7;
  const auto fingerprint = store::fingerprint_of(lca, kTape);

  // One warm state shared by every engine below: the bench measures the
  // steady-state request path, not the warm-up (that is E17/E18's job).
  const auto warm =
      std::make_shared<const core::LcaKpRun>(lca.run_warmup(kTape));

  bool ok = true;

  // --- 1. Certify-on overhead on the E15 hotspot workload. ------------------
  core::WorkloadConfig workload;
  workload.shape = core::WorkloadConfig::Shape::kHotspot;
  workload.queries = smoke ? 20'000 : 200'000;
  workload.seed = 19;
  const auto trace = core::generate_workload(n, workload);

  // Windowed closed-loop replay, same client model as bench_serve_engine.
  const auto replay_ms = [&](bool certify, const std::string& cert_dir) {
    serve::EngineConfig engine_config;
    engine_config.workers = 4;
    engine_config.queue_capacity = trace.size();
    engine_config.batcher.max_batch_size = 64;
    engine_config.batcher.max_linger = std::chrono::microseconds(200);
    engine_config.cache.capacity = 1 << 14;
    engine_config.cache.shards = 8;
    engine_config.cache.paranoia_every = 64;
    engine_config.warmup_tape_seed = kTape;
    engine_config.warm_state = warm;
    engine_config.certify = certify;
    engine_config.cert_dir = cert_dir;
    metrics::Registry registry;
    serve::ServeEngine engine(lca, engine_config, registry);

    constexpr std::size_t kWindow = 1'024;
    std::vector<std::future<serve::Response>> window;
    window.reserve(kWindow);
    const auto t0 = Clock::now();
    for (const auto item : trace) {
      window.push_back(engine.submit(item));
      if (window.size() == kWindow) {
        for (auto& future : window) (void)future.get();
        window.clear();
      }
    }
    for (auto& future : window) (void)future.get();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    engine.drain();
    return std::pair<double, serve::EngineStats>(ms, engine.stats());
  };

  // Paired design: each rep runs certify-off and certify-on back to back
  // (order alternating), and the prediction is checked on the MEDIAN OF THE
  // PER-REP RATIOS — machine-load drift between reps hits both sides of a
  // pair and cancels, where independent medians would book it as overhead.
  const int reps = smoke ? 3 : 7;
  std::vector<double> off_times;
  std::vector<double> on_times;
  std::vector<double> rep_overheads;
  serve::EngineStats certified_stats;
  for (int r = 0; r < reps; ++r) {
    const auto cert_dir = dir / ("certs-" + std::to_string(r));
    std::filesystem::create_directories(cert_dir);
    double off;
    double on;
    if (r % 2 == 0) {
      off = replay_ms(false, "").first;
      const auto [ms, stats] = replay_ms(true, cert_dir.string());
      on = ms;
      certified_stats = stats;
    } else {
      const auto [ms, stats] = replay_ms(true, cert_dir.string());
      on = ms;
      certified_stats = stats;
      off = replay_ms(false, "").first;
    }
    off_times.push_back(off);
    on_times.push_back(on);
    rep_overheads.push_back((on - off) / off * 100.0);
  }
  const double off_ms = bench::median(off_times);
  const double on_ms = bench::median(on_times);
  const double overhead_pct = bench::median(rep_overheads);
  {
    util::Table table({"engine", "median ms", "overhead %"});
    table.row().cell("certify off").cell(off_ms, 2).cell(0.0, 2);
    table.row().cell("certify on").cell(on_ms, 2).cell(overhead_pct, 2);
    table.print(std::cout,
                "serving overhead: E15 hotspot workload, shared warm state");
    std::cout << "\n";
    if (overhead_pct > 5.0) {
      std::cerr << "FAIL: certify-on overhead " << overhead_pct
                << "% above the predicted 5%\n";
      ok = false;
    }
  }

  // --- 2. Offline verify throughput. ----------------------------------------
  // A dedicated log of known size, built straight from the warm state (the
  // same records the engine would write), then re-validated from the
  // snapshot fingerprint alone.
  const std::uint64_t kRecords = smoke ? 10'000 : 100'000;
  const auto verify_dir = dir / "verify-log";
  std::filesystem::create_directories(verify_dir);
  {
    cert::CertLogConfig log_config;
    log_config.directory = verify_dir.string();
    cert::CertLog log(log_config, fingerprint);
    core::LcaKp::AnswerWitness witness;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      const std::size_t item = static_cast<std::size_t>(i) % n;
      cert::CertRecord record;
      record.item = item;
      record.answer = lca.answer_with_witness(*warm, item, witness);
      record.profit = witness.profit;
      record.weight = witness.weight;
      record.case_tag = cert::case_of(witness);
      record.threshold_idx =
          witness.large ? -1 : cert::active_threshold_index(*warm);
      (void)log.append(record);
    }
  }

  const std::uint64_t queries_before = access.query_count();
  std::vector<double> verify_times;
  cert::VerifyReport report;
  for (int r = 0; r < reps; ++r) {
    const cert::LogVerifier verifier(fingerprint, *warm);
    const auto t0 = Clock::now();
    report = verifier.verify_path(verify_dir.string());
    verify_times.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  const double verify_ms = bench::median(verify_times);
  const double records_per_s =
      static_cast<double>(report.records) / (verify_ms / 1'000.0);
  const std::uint64_t oracle_queries_during_verify =
      access.query_count() - queries_before;
  {
    util::Table table({"metric", "value"});
    table.row().cell("records verified").cell(report.records);
    table.row().cell("records rejected").cell(report.rejected);
    table.row().cell("median verify ms").cell(verify_ms, 2);
    table.row().cell("throughput (records/s)")
        .cell(static_cast<std::uint64_t>(records_per_s));
    table.row().cell("oracle queries during verify")
        .cell(oracle_queries_during_verify);
    table.print(std::cout, "offline audit: verify-log from the snapshot state");
    std::cout << "\n";
    if (!report.clean() || report.records != kRecords) {
      std::cerr << "FAIL: the audit rejected records from an honest log\n";
      ok = false;
    }
    if (records_per_s < 100'000.0) {
      std::cerr << "FAIL: verify throughput " << records_per_s
                << " records/s below the predicted 100k\n";
      ok = false;
    }
    if (oracle_queries_during_verify != 0) {
      std::cerr << "FAIL: verification touched the oracle\n";
      ok = false;
    }
  }

  // --- 3. The certified run's log shape, for context. ------------------------
  {
    util::Table table({"metric", "value"});
    table.row().cell("trace queries").cell(trace.size());
    table.row().cell("certificates written").cell(certified_stats.cert_records);
    table.row().cell("certificates skipped").cell(certified_stats.cert_skipped);
    table.row().cell("segments sealed").cell(certified_stats.cert_segments);
    table.row().cell("log bytes").cell(certified_stats.cert_bytes);
    table.print(std::cout, "certified run: log shape");
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"cert\",\n"
       << "  \"experiment\": \"E19\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"certify_off_ms\": " << off_ms << ",\n"
       << "  \"certify_on_ms\": " << on_ms << ",\n"
       << "  \"certify_overhead_pct\": " << overhead_pct << ",\n"
       << "  \"verify_records\": " << report.records << ",\n"
       << "  \"verify_ms\": " << verify_ms << ",\n"
       << "  \"verify_records_per_s\": " << records_per_s << ",\n"
       << "  \"oracle_queries_during_verify\": " << oracle_queries_during_verify
       << ",\n"
       << "  \"cert_records_written\": " << certified_stats.cert_records << ",\n"
       << "  \"cert_records_skipped\": " << certified_stats.cert_skipped << ",\n"
       << "  \"pass\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }

  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
