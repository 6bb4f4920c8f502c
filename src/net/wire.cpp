#include "net/wire.h"

#include <string>

#include "util/bytes.h"

namespace lcaknap::net {
namespace {

// Bytes after the length prefix, excluding the variable tenant id.
constexpr std::size_t kRequestFixed = 4 + 2 + 2 + 8 + 8 + 8 + 2 + 8;
// Responses are fixed-layout (version 2 added the replica_id u64, version 3
// the epoch_id u64).
constexpr std::size_t kResponseLen = 4 + 2 + 2 + 8 + 8 + 8 + 1 + 1 + 8;

using util::put_le;

/// Common prologue: reads and bounds-checks the length prefix.  Returns the
/// frame length, or 0 when the buffer is still incomplete.
std::size_t frame_length(std::string_view buffer, std::size_t min_len,
                         std::size_t max_len, bool exact) {
  if (buffer.size() < 4) return 0;
  const auto len = util::ByteReader(buffer).get<std::uint32_t>();
  if (len < min_len || len > max_len || (exact && len != min_len)) {
    throw WireDecodeError(WireError::kBadLength,
                          "frame length " + std::to_string(len) +
                              " outside [" + std::to_string(min_len) + ", " +
                              std::to_string(max_len) + "]");
  }
  if (buffer.size() < 4 + static_cast<std::size_t>(len)) return 0;
  return len;
}

/// Verifies the trailing CRC of the frame occupying buffer[0, 4+len).
void check_crc(std::string_view buffer, std::size_t len) {
  if (!util::seal_holds(buffer.substr(0, 4 + len))) {
    throw WireDecodeError(WireError::kBadCrc, "frame checksum mismatch");
  }
}

}  // namespace

void encode(const RequestFrame& frame, std::string& out) {
  if (!util::valid_id(frame.tenant)) {
    throw std::invalid_argument("invalid tenant id: '" + frame.tenant + "'");
  }
  const std::size_t frame_start = out.size();
  put_le(out, static_cast<std::uint32_t>(kRequestFixed + frame.tenant.size()));
  put_le(out, kRequestMagic);
  put_le(out, kWireVersion);
  put_le(out, frame.flags);
  put_le(out, frame.request_id);
  put_le(out, frame.item);
  put_le(out, frame.deadline_us);
  put_le(out, static_cast<std::uint16_t>(frame.tenant.size()));
  out.append(frame.tenant);
  util::seal(out, frame_start);
}

void encode(const ResponseFrame& frame, std::string& out) {
  const std::size_t frame_start = out.size();
  put_le(out, static_cast<std::uint32_t>(kResponseLen));
  put_le(out, kResponseMagic);
  put_le(out, kWireVersion);
  put_le(out, static_cast<std::uint16_t>(frame.status));
  put_le(out, frame.request_id);
  put_le(out, frame.replica_id);
  put_le(out, frame.epoch_id);
  put_le<std::uint8_t>(out, frame.answer ? 1 : 0);
  put_le<std::uint8_t>(out, frame.cache_hit ? 1 : 0);
  util::seal(out, frame_start);
}

std::size_t decode(std::string_view buffer, RequestFrame& frame) {
  const std::size_t len = frame_length(buffer, kRequestFixed,
                                       kMaxFrameBytes, /*exact=*/false);
  if (len == 0) return 0;
  util::ByteReader in(buffer.substr(4, len));
  if (in.get<std::uint32_t>() != kRequestMagic) {
    throw WireDecodeError(WireError::kBadMagic, "not a request frame");
  }
  const auto version = in.get<std::uint16_t>();
  if (version != kWireVersion) {
    throw WireDecodeError(WireError::kBadVersion,
                          "protocol version " + std::to_string(version) +
                              " != " + std::to_string(kWireVersion));
  }
  frame.flags = in.get<std::uint16_t>();
  frame.request_id = in.get<std::uint64_t>();
  frame.item = in.get<std::uint64_t>();
  frame.deadline_us = in.get<std::uint64_t>();
  const auto tenant_len = in.get<std::uint16_t>();
  // Structural cross-check: the length prefix and the tenant length must
  // agree exactly, so a bit flip in either is typed kBadLength immediately.
  if (kRequestFixed + static_cast<std::size_t>(tenant_len) != len) {
    throw WireDecodeError(WireError::kBadLength,
                          "tenant length inconsistent with frame length");
  }
  const std::string_view tenant = in.take(tenant_len);
  if (!util::valid_id(tenant)) {
    throw WireDecodeError(WireError::kBadTenant, "invalid tenant id");
  }
  check_crc(buffer, len);
  frame.tenant.assign(tenant);
  return 4 + len;
}

std::size_t decode(std::string_view buffer, ResponseFrame& frame) {
  const std::size_t len = frame_length(buffer, kResponseLen, kResponseLen,
                                       /*exact=*/true);
  if (len == 0) return 0;
  util::ByteReader in(buffer.substr(4, len));
  if (in.get<std::uint32_t>() != kResponseMagic) {
    throw WireDecodeError(WireError::kBadMagic, "not a response frame");
  }
  const auto version = in.get<std::uint16_t>();
  if (version != kWireVersion) {
    throw WireDecodeError(WireError::kBadVersion,
                          "protocol version " + std::to_string(version) +
                              " != " + std::to_string(kWireVersion));
  }
  const auto status = in.get<std::uint16_t>();
  if (status > static_cast<std::uint16_t>(WireStatus::kShuttingDown)) {
    throw WireDecodeError(WireError::kBadStatus,
                          "status " + std::to_string(status) + " out of range");
  }
  frame.status = static_cast<WireStatus>(status);
  frame.request_id = in.get<std::uint64_t>();
  frame.replica_id = in.get<std::uint64_t>();
  frame.epoch_id = in.get<std::uint64_t>();
  frame.answer = in.get<std::uint8_t>() != 0;
  frame.cache_hit = in.get<std::uint8_t>() != 0;
  check_crc(buffer, len);
  return 4 + len;
}

std::size_t encoded_response_size() noexcept { return 4 + kResponseLen; }

}  // namespace lcaknap::net
