#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cert/certificate.h"
#include "core/lca_kp.h"
#include "dyn/update.h"
#include "net/wire.h"
#include "store/snapshot.h"

/// Golden pins on every sealed format's bytes.  Each encoding below is built
/// from fixed inputs (no warm-up, no RNG) and pinned by its length and the
/// CRC-64 of its bytes, so a refactor of the shared codec that moves a single
/// byte in the snapshot, certificate, wire or epoch-log format fails here.
/// The pins hash with a bit-at-a-time reference CRC of their own, so they do
/// not lean on the table-driven CRC-64 that the formats themselves use.

namespace lcaknap {
namespace {

/// CRC-64/XZ one bit at a time: reflected ECMA-182 polynomial, all-ones
/// initial value and final XOR.
std::uint64_t reference_crc64(std::string_view bytes) {
  std::uint64_t crc = ~0ull;
  for (const char c : bytes) {
    crc ^= static_cast<std::uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xC96C5795D7870F42ull : crc >> 1;
    }
  }
  return ~crc;
}

/// The CRC-64/XZ of any buffer that ends in the little-endian CRC-64 of the
/// bytes before it: the CRC's residue, the same for every sealed buffer.
constexpr std::uint64_t kSealedResidue = 0xB66A73654282CAC0ull;

/// The CRC of a sealed encoding's body (every byte before its 8-byte seal),
/// after checking that the seal is the little-endian CRC of that body.
std::uint64_t body_crc(const std::string& sealed) {
  EXPECT_EQ(reference_crc64(sealed), kSealedResidue)
      << "the trailing 8 bytes are not the CRC-64 of the bytes before them";
  return reference_crc64(std::string_view(sealed).substr(0, sealed.size() - 8));
}

store::SnapshotFingerprint pinned_fingerprint() {
  store::SnapshotFingerprint fp;
  fp.n = 600;
  fp.capacity = 10'000;
  fp.total_profit = 123'456;
  fp.total_weight = 98'765;
  fp.eps = 0.3;
  fp.seed = 0xFEED;
  fp.domain_bits = 20;
  fp.branching = 4;
  fp.tau = 0.01;
  fp.rho = 0.02;
  fp.beta = 0.03;
  fp.large_samples = 2'000;
  fp.quantile_samples = 4'096;
  fp.tape_seed = 7;
  fp.warmup_shards = 64;
  fp.reproducible_quantiles = true;
  fp.paper_constants = false;
  fp.epoch_id = 3;
  return fp;
}

core::LcaKpRun pinned_run() {
  core::LcaKpRun run;
  run.index_large = {17, 3, 511, 42};
  run.e_small_grid = 1'234;
  run.singleton = false;
  run.degenerate = true;
  run.large_mass = 0.625;
  run.q = 0.125;
  run.t = 5;
  run.thresholds_grid = {-7, 0, 1'234, 9'000'000'000};
  run.thresholds = {0.5, 1.25, -3.0, 1e300};
  run.samples_used = 4'096;
  run.tilde_size = 77;
  return run;
}

TEST(FormatPins, ReferenceCrcMatchesTheXzCheckValue) {
  EXPECT_EQ(reference_crc64("123456789"), 0x995DC9BBDF1939FAull);
  EXPECT_EQ(reference_crc64(""), 0ull);
}

TEST(FormatPins, SnapshotBytesArePinned) {
  const std::string bytes =
      store::encode_snapshot(pinned_fingerprint(), pinned_run());
  EXPECT_EQ(bytes.size(), 302u);
  EXPECT_EQ(body_crc(bytes), 0x72B8B2E2AB3AC3B4ull);
}

TEST(FormatPins, CertificateHeaderAndRecordBytesArePinned) {
  std::string header;
  cert::encode_header(header, pinned_fingerprint());
  EXPECT_EQ(header.size(), cert::kCertHeaderBytes);
  EXPECT_EQ(body_crc(header), 0x38CD7E23D89AC0E1ull);

  cert::CertRecord record;
  record.seq = 42;
  record.item = 137;
  record.profit = -9'001;
  record.weight = 77;
  record.case_tag = cert::CaseTag::kSmallAccept;
  record.answer = true;
  record.threshold_idx = -1;
  std::string encoded;
  cert::encode_record(encoded, record);
  EXPECT_EQ(encoded.size(), cert::kCertRecordBytes);
  EXPECT_EQ(body_crc(encoded), 0x70EE82E89DBBCA76ull);
  char direct[cert::kCertRecordBytes] = {};
  cert::encode_record_to(direct, record);
  EXPECT_EQ(std::string(direct, sizeof direct), encoded);
}

TEST(FormatPins, WireFramesArePinned) {
  net::RequestFrame request;
  request.flags = net::RequestFrame::kFlagHealth;
  request.request_id = 0x0102030405060708ull;
  request.item = 999'999;
  request.deadline_us = 2'500;
  request.tenant = "tenant-A.prod_1";
  std::string request_bytes;
  net::encode(request, request_bytes);
  EXPECT_EQ(request_bytes.size(), 61u);
  EXPECT_EQ(body_crc(request_bytes), 0x208F6BA86F1CEF4Bull);

  net::ResponseFrame response;
  response.request_id = 0x0102030405060708ull;
  response.replica_id = 12;
  response.epoch_id = 34;
  response.status = net::WireStatus::kOk;
  response.answer = true;
  response.cache_hit = true;
  std::string response_bytes;
  net::encode(response, response_bytes);
  EXPECT_EQ(response_bytes.size(), net::encoded_response_size());
  EXPECT_EQ(body_crc(response_bytes), 0xD1B4C187D02E6E45ull);
}

TEST(FormatPins, EpochLogSealIsPinned) {
  dyn::UpdateBatch batch;
  batch.epoch_id = 9;
  batch.mutations = {
      {dyn::MutationKind::kInsert, 0, 500, 40},
      {dyn::MutationKind::kDelete, 12, 0, 0},
      {dyn::MutationKind::kProfitUpdate, 3, 77, 0},
      {dyn::MutationKind::kWeightUpdate, 4, 0, 19},
  };
  EXPECT_EQ(dyn::batch_crc(batch), 0xF4C34DE7F7B17E68ull);
  const std::vector<dyn::UpdateBatch> log = {batch};
  EXPECT_EQ(reference_crc64(dyn::serialize_epoch_log(log)), 0x487C781542AE8CDFull);
}

}  // namespace
}  // namespace lcaknap
