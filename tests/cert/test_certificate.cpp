#include "cert/certificate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "store/snapshot.h"
#include "util/bytes.h"

/// Record/header codec unit tests: canonical fixed-width encoding,
/// lossless round trips for every case tag, and typed rejection of every
/// structural defect (bad tag, bad answer byte, nonzero reserved bytes,
/// wrong size) even when the CRC has been recomputed to match.

namespace lcaknap::cert {
namespace {

CertRecord sample_record() {
  CertRecord record;
  record.seq = 42;
  record.item = 137;
  record.profit = 9'001;
  record.weight = 77;
  record.case_tag = CaseTag::kSmallAccept;
  record.answer = true;
  record.threshold_idx = 3;
  return record;
}

store::SnapshotFingerprint sample_fingerprint() {
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
  fp.beta = 0.5;
  fp.large_samples = 500;
  fp.quantile_samples = 1'024;
  fp.tape_seed = 2;
  fp.warmup_shards = 64;
  return fp;
}

/// Re-seals a tampered record encoding so only the *structural* validation
/// (not the CRC) can reject it.
void reseal(std::string& bytes) {
  ASSERT_EQ(bytes.size(), kCertRecordBytes);
  const auto crc = util::crc64(
      std::string_view(bytes).substr(0, kCertRecordBytes - 8));
  for (int b = 0; b < 8; ++b) {
    bytes[kCertRecordBytes - 8 + static_cast<std::size_t>(b)] =
        static_cast<char>((crc >> (8 * b)) & 0xFF);
  }
}

TEST(CertRecord, EncodesFixedWidth) {
  std::string bytes;
  encode_record(bytes, sample_record());
  EXPECT_EQ(bytes.size(), kCertRecordBytes);
  std::string header;
  encode_header(header, sample_fingerprint());
  EXPECT_EQ(header.size(), kCertHeaderBytes);
}

TEST(CertRecord, RoundTripsEveryCaseTag) {
  for (int tag = 0; tag < kCaseTagCount; ++tag) {
    CertRecord record = sample_record();
    record.case_tag = static_cast<CaseTag>(tag);
    record.answer = record.case_tag == CaseTag::kLargeHit ||
                    record.case_tag == CaseTag::kSmallAccept;
    record.threshold_idx =
        (record.case_tag == CaseTag::kLargeHit ||
         record.case_tag == CaseTag::kLargeMiss)
            ? -1
            : 5;
    std::string bytes;
    encode_record(bytes, record);
    EXPECT_EQ(decode_record(bytes), record) << case_tag_name(record.case_tag);
  }
}

TEST(CertRecord, EncodingIsCanonical) {
  // Equal records must encode to equal bytes — the property that lets logs
  // be compared or content-addressed as raw bytes.
  std::string a;
  std::string b;
  encode_record(a, sample_record());
  encode_record(b, sample_record());
  EXPECT_EQ(a, b);

  // encode appends (callers batch records into one buffer).
  std::string both;
  encode_record(both, sample_record());
  encode_record(both, sample_record());
  EXPECT_EQ(both.size(), 2 * kCertRecordBytes);
  EXPECT_EQ(both.substr(0, kCertRecordBytes), a);
}

TEST(CertRecord, HeaderRoundTripsFingerprint) {
  const auto fp = sample_fingerprint();
  std::string bytes;
  encode_header(bytes, fp);
  const auto decoded = decode_header(bytes);
  EXPECT_TRUE(decoded.equals(fp));
}

TEST(CertRecord, RejectsUnknownCaseTagEvenWithValidCrc) {
  std::string bytes;
  encode_record(bytes, sample_record());
  bytes[32] = static_cast<char>(kCaseTagCount);  // case byte
  reseal(bytes);
  EXPECT_THROW((void)decode_record(bytes), CertCorrupt);
}

TEST(CertRecord, RejectsNonBooleanAnswerByteEvenWithValidCrc) {
  std::string bytes;
  encode_record(bytes, sample_record());
  bytes[33] = 2;  // answer byte: only 0/1 are canonical
  reseal(bytes);
  EXPECT_THROW((void)decode_record(bytes), CertCorrupt);
}

TEST(CertRecord, RejectsNonzeroReservedBytesEvenWithValidCrc) {
  for (const std::size_t reserved : {34u, 35u}) {
    std::string bytes;
    encode_record(bytes, sample_record());
    bytes[reserved] = 1;
    reseal(bytes);
    EXPECT_THROW((void)decode_record(bytes), CertCorrupt)
        << "reserved byte " << reserved;
  }
}

TEST(CertRecord, RejectsWrongSizes) {
  std::string bytes;
  encode_record(bytes, sample_record());
  EXPECT_THROW((void)decode_record(std::string_view(bytes).substr(0, 10)),
               CertTruncated);
  EXPECT_THROW((void)decode_record(bytes + std::string(1, '\0')), CertCorrupt);

  std::string header;
  encode_header(header, sample_fingerprint());
  EXPECT_THROW((void)decode_header(std::string_view(header).substr(0, 20)),
               CertTruncated);
  // Extra bytes past a valid header are record territory, not a header
  // defect — decode_header reads exactly kCertHeaderBytes.
  EXPECT_NO_THROW((void)decode_header(header + std::string(1, '\0')));
}

TEST(CertRecord, CaseOfMatchesWitnessSemantics) {
  using Witness = core::LcaKp::AnswerWitness;
  EXPECT_EQ(case_of(Witness{10, 5, true, true}), CaseTag::kLargeHit);
  EXPECT_EQ(case_of(Witness{10, 5, true, false}), CaseTag::kLargeMiss);
  EXPECT_EQ(case_of(Witness{10, 5, false, true}), CaseTag::kSmallAccept);
  EXPECT_EQ(case_of(Witness{10, 5, false, false}), CaseTag::kSmallReject);
}

}  // namespace
}  // namespace lcaknap::cert
