#include "cert/certificate.h"

#include <algorithm>

#include "util/bytes.h"

namespace lcaknap::cert {

const char* case_tag_name(CaseTag tag) noexcept {
  switch (tag) {
    case CaseTag::kLargeHit:
      return "large-hit";
    case CaseTag::kLargeMiss:
      return "large-miss";
    case CaseTag::kSmallAccept:
      return "small-accept";
    case CaseTag::kSmallReject:
      return "small-reject";
  }
  return "unknown";
}

std::int32_t active_threshold_index(const core::LcaKpRun& run) noexcept {
  if (run.e_small_grid < 0) return -1;
  const auto& grid = run.thresholds_grid;
  const auto it = std::find(grid.begin(), grid.end(), run.e_small_grid);
  if (it == grid.end()) return -1;
  return static_cast<std::int32_t>(it - grid.begin());
}

void encode_record_to(char* out, const CertRecord& record) noexcept {
  util::store_le(out + 0, record.seq);
  util::store_le(out + 8, record.item);
  util::store_le(out + 16, record.profit);
  util::store_le(out + 24, record.weight);
  out[32] = static_cast<char>(record.case_tag);
  out[33] = static_cast<char>(record.answer ? 1 : 0);
  out[34] = 0;  // reserved
  out[35] = 0;  // reserved
  util::store_le(out + 36, static_cast<std::uint32_t>(record.threshold_idx));
  util::seal_to(out, kCertRecordBytes - 8);
}

void encode_record(std::string& out, const CertRecord& record) {
  char bytes[kCertRecordBytes];
  encode_record_to(bytes, record);
  out.append(bytes, kCertRecordBytes);
}

CertRecord decode_record(std::string_view bytes) {
  if (bytes.size() < kCertRecordBytes) {
    throw CertTruncated("certificate: record shorter than " +
                        std::to_string(kCertRecordBytes) + " bytes");
  }
  if (bytes.size() > kCertRecordBytes) {
    throw CertCorrupt("certificate: record longer than the fixed size");
  }
  if (!util::seal_holds(bytes)) {
    throw CertCorrupt("certificate: record CRC64 mismatch");
  }
  util::ByteReader in(bytes);
  CertRecord record;
  record.seq = in.get<std::uint64_t>();
  record.item = in.get<std::uint64_t>();
  record.profit = in.get<std::int64_t>();
  record.weight = in.get<std::int64_t>();
  const auto tag = in.get<std::uint8_t>();
  if (tag >= kCaseTagCount) {
    throw CertCorrupt("certificate: unknown case tag " + std::to_string(tag));
  }
  record.case_tag = static_cast<CaseTag>(tag);
  const auto answer = in.get<std::uint8_t>();
  if (answer > 1) {
    throw CertCorrupt("certificate: non-boolean answer byte");
  }
  record.answer = answer != 0;
  if (in.get<std::uint16_t>() != 0) {
    throw CertCorrupt("certificate: nonzero reserved bytes");
  }
  record.threshold_idx = static_cast<std::int32_t>(in.get<std::uint32_t>());
  return record;
}

void encode_header(std::string& out,
                   const store::SnapshotFingerprint& fingerprint) {
  const std::size_t start = out.size();
  out.append(kCertMagic, sizeof(kCertMagic));
  util::put_le(out, kCertVersion);
  util::put_le(out, static_cast<std::uint32_t>(kCertRecordBytes));
  store::encode_fingerprint(out, fingerprint);
  util::seal(out, start);
}

store::SnapshotFingerprint decode_header(std::string_view bytes) {
  if (bytes.size() < kCertHeaderBytes) {
    throw CertTruncated("certificate: segment shorter than any valid header");
  }
  if (!util::seal_holds(bytes.substr(0, kCertHeaderBytes))) {
    throw CertCorrupt("certificate: header CRC64 mismatch");
  }
  util::ByteReader in(bytes);
  if (in.take(sizeof(kCertMagic)) !=
      std::string_view(kCertMagic, sizeof(kCertMagic))) {
    throw CertCorrupt("certificate: bad magic");
  }
  if (const auto version = in.get<std::uint32_t>(); version != kCertVersion) {
    throw CertCorrupt("certificate: unsupported format version " +
                      std::to_string(version));
  }
  if (const auto record_bytes = in.get<std::uint32_t>();
      record_bytes != kCertRecordBytes) {
    throw CertCorrupt("certificate: unexpected record size " +
                      std::to_string(record_bytes));
  }
  try {
    return store::decode_fingerprint(in.take(store::kFingerprintBytes));
  } catch (const store::SnapshotError& e) {
    // The CRC already passed, so a malformed fingerprint is a writer bug,
    // but it must still surface as this format's taxonomy.
    throw CertCorrupt(std::string("certificate: bad fingerprint block: ") +
                      e.what());
  }
}

}  // namespace lcaknap::cert
