#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>

#include "cert/certificate.h"
#include "cert/verifier.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "fault/verifying.h"
#include "metrics/metrics.h"
#include "cert_test_env.h"

/// The chaos drill (ISSUE 6 acceptance): `fault::ChaosAccess` corruption is
/// wrong-but-well-formed and always violates a free-metadata invariant —
/// exactly the invariants `fault::VerifyingAccess` checks online and the
/// offline verifier mirrors.  So if a corrupted witness ever leaked into a
/// certificate record, the offline audit must reject it as
/// kWitnessInvariant, for 100% of the corruptions the online guard would
/// have flagged.

namespace lcaknap::cert {
namespace {

class CertChaos : public CertTestEnv {};

/// Every call corrupted, forever; no fail-stops, no latency.
fault::FaultPlan always_corrupt(std::uint64_t seed) {
  return fault::parse_fault_plan("corrupt:0:corrupt=1", seed);
}

/// Builds the record a (buggy or compromised) writer would emit for a
/// corrupted item: case tag, threshold echo, and answer all *internally
/// consistent* with the corrupted witness, so the invariant mirror is the
/// only check that can catch it — the drill's worst case.
CertRecord record_from_witness(const store::SnapshotFingerprint& fp,
                               const core::LcaKpRun& warm, std::size_t item,
                               const knapsack::Item& witnessed) {
  const double norm_profit = static_cast<double>(witnessed.profit) /
                             static_cast<double>(fp.total_profit);
  const bool large = norm_profit > fp.eps * fp.eps;
  bool answer = false;
  if (large) {
    answer = warm.index_large.contains(item);
  } else {
    const double efficiency =
        witnessed.weight == 0
            ? std::numeric_limits<double>::infinity()
            : norm_profit / (static_cast<double>(witnessed.weight) /
                             static_cast<double>(fp.total_weight));
    const iky::EfficiencyDomain domain(static_cast<int>(fp.domain_bits));
    answer = warm.e_small_grid >= 0 &&
             domain.to_grid(efficiency) >= warm.e_small_grid;
  }
  CertRecord record;
  record.item = item;
  record.profit = witnessed.profit;
  record.weight = witnessed.weight;
  record.case_tag = large
                        ? (answer ? CaseTag::kLargeHit : CaseTag::kLargeMiss)
                        : (answer ? CaseTag::kSmallAccept
                                  : CaseTag::kSmallReject);
  record.answer = answer;
  record.threshold_idx = large ? -1 : active_threshold_index(warm);
  return record;
}

TEST_F(CertChaos, VerifierCatchesEveryCorruptionTheOnlineGuardFlags) {
  constexpr std::size_t kQueries = 400;
  constexpr std::uint64_t kChaosSeed = 0xC405;

  // Pass 1 — online: the scripted corruption behind VerifyingAccess.  Every
  // flagged call throws CorruptedAnswer before the item reaches anyone.
  std::uint64_t online_flagged = 0;
  {
    metrics::Registry registry;
    const fault::ChaosAccess chaos(access(), always_corrupt(kChaosSeed),
                                   util::system_clock(), /*armed=*/true,
                                   registry);
    const fault::VerifyingAccess guard(chaos, registry);
    for (std::size_t i = 0; i < kQueries; ++i) {
      try {
        (void)guard.query(i % 600);
      } catch (const fault::CorruptedAnswer&) {
        ++online_flagged;
      }
    }
    EXPECT_EQ(online_flagged, guard.corruptions_detected());
  }
  ASSERT_GT(online_flagged, 0u);

  // Pass 2 — offline: an identical chaos replay (same plan seed, same call
  // order) with NO online guard, as if a compromised serving path certified
  // the corrupted witnesses.  The offline verifier must reject every record
  // the online guard would have flagged, all as kWitnessInvariant.
  metrics::Registry registry;
  const fault::ChaosAccess chaos(access(), always_corrupt(kChaosSeed),
                                 util::system_clock(), /*armed=*/true,
                                 registry);
  const LogVerifier verifier(fingerprint(), run(), {}, registry);
  std::uint64_t offline_rejected = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto witnessed = chaos.query(i % 600);
    const auto record =
        record_from_witness(fingerprint(), run(), i % 600, witnessed);
    const auto reason = verifier.check_record(record);
    if (reason.has_value()) {
      EXPECT_EQ(*reason, RejectReason::kWitnessInvariant)
          << "call " << i << " rejected for the wrong reason";
      ++offline_rejected;
    }
  }

  // 100%: chaos corruption is undetectable-free by construction, so the
  // offline mirror catches exactly what the online guard catches.
  EXPECT_EQ(offline_rejected, online_flagged);
  EXPECT_EQ(offline_rejected, kQueries);  // corrupt_rate=1: every call
}

TEST_F(CertChaos, UncorruptedWitnessesStillVerify) {
  // Disarmed chaos: pass-through answers must certify cleanly, proving the
  // drill's rejections come from the corruption, not the harness.
  metrics::Registry registry;
  const fault::ChaosAccess chaos(access(), always_corrupt(1), util::system_clock(),
                                 /*armed=*/false, registry);
  const LogVerifier verifier(fingerprint(), run(), {}, registry);
  for (std::size_t i = 0; i < 100; ++i) {
    const auto witnessed = chaos.query(i);
    const auto record = record_from_witness(fingerprint(), run(), i, witnessed);
    EXPECT_EQ(verifier.check_record(record), std::nullopt) << "item " << i;
  }
}

}  // namespace
}  // namespace lcaknap::cert
