// lcaknap_verify_log — standalone offline certificate auditor.
//
//   lcaknap_verify_log --log <FILE|DIR> --snap PATH [--sample K] [--quiet]
//
// Replays a certificate log (written by `serve-engine --certify`) against
// the warm-state snapshot it names and re-derives every answer.  The point
// of this binary existing separately from the full CLI is its link line:
// it links cert + store + core + iky + metrics + util and NOTHING from
// oracle/, fault/, or knapsack/ — build-system proof that certificate
// verification needs zero oracle access and no instance file.  See
// docs/CERTIFICATES.md for the record layout and the audit runbook.
//
// Exit codes: 0 clean, 1 usage error, 2 any rejection or runtime failure.

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "cert/verifier.h"
#include "store/snapshot.h"
#include "util/table.h"

#include "args.h"

namespace {

using namespace lcaknap;

void usage() {
  std::cerr << "usage: lcaknap_verify_log --log FILE|DIR --snap PATH"
               " [--sample K] [--quiet]\n"
               "Offline certificate audit: re-derives every Kth recorded\n"
               "answer from the snapshot's warm state alone (zero oracle\n"
               "access; CRC structure always checked).  Exit 2 on any\n"
               "rejection.  See docs/CERTIFICATES.md.\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<tools::Args> args;
  cert::VerifierConfig config;
  try {
    args.emplace(argc, argv, 1,
                 tools::FlagSpec{{"log", "snap", "sample"}, {"quiet"}});
    if (!args->has("log") || !args->has("snap")) {
      throw std::invalid_argument("--log and --snap are required");
    }
    config.sample_every = args->get_u64("sample", config.sample_every);
  } catch (const std::exception& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    usage();
    return 1;
  }
  try {
    store::SnapshotFingerprint fingerprint;
    const auto run = store::read_snapshot(args->require("snap"), nullptr, &fingerprint);
    const cert::LogVerifier verifier(fingerprint, run, config);
    const auto report = verifier.verify_path(args->require("log"));

    if (!args->has("quiet")) {
      util::Table table({"metric", "value"});
      table.row().cell("segments").cell(report.segments);
      table.row().cell("records").cell(report.records);
      table.row().cell("semantically checked").cell(report.records_checked);
      table.row().cell("accepted / rejected")
          .cell(std::to_string(report.accepted) + " / " +
                std::to_string(report.rejected));
      for (int r = 0; r < cert::kRejectReasonCount; ++r) {
        if (report.by_reason[static_cast<std::size_t>(r)] == 0) continue;
        table.row()
            .cell(std::string("rejected: ") +
                  cert::reject_reason_name(static_cast<cert::RejectReason>(r)))
            .cell(report.by_reason[static_cast<std::size_t>(r)]);
      }
      table.row().cell("throughput (records/s)").cell(
          report.seconds > 0
              ? static_cast<double>(report.records) / report.seconds
              : 0.0, 0);
      table.row().cell("oracle queries").cell(std::uint64_t{0});
      table.row().cell("verdict").cell(report.clean() ? "CLEAN" : "REJECTED");
      table.print(std::cout, "verify-log");
      for (const auto& example : report.examples) {
        std::cerr << "reject: " << example << "\n";
      }
    }
    return report.clean() ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
