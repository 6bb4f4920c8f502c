#ifndef LCAKNAP_NET_WIRE_H
#define LCAKNAP_NET_WIRE_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "serve/request.h"

/// \file wire.h
/// The length-prefixed binary protocol of the network front-end (src/net/).
///
/// One request frame carries one membership query ("is item i in tenant T's
/// solution?") and one response frame carries the answer plus the serving
/// outcome as a `WireStatus` — the engine's conservation law extended to the
/// socket: every frame in produces exactly one status out, including
/// explicit `kOverloaded` under backpressure (a loaded server says "no",
/// it never silently drops or stalls).
///
/// Byte layout (all integers little-endian; see docs/NETWORKING.md):
///
///   request  := len:u32 magic:u32('LKRQ') version:u16 flags:u16
///               request_id:u64 item:u64 deadline_us:u64
///               tenant_len:u16 tenant:bytes crc:u64
///   response := len:u32 magic:u32('LKRS') version:u16 status:u16
///               request_id:u64 replica_id:u64 epoch_id:u64
///               answer:u8 cache_hit:u8 crc:u64
///
/// Version 2 added `replica_id` (echoed on every response) and the health
/// flag: a request with `kFlagHealth` set is a readiness probe for its
/// tenant — answered on the event loop without touching the engine, with
/// `answer` = 1 iff the tenant's warm state is hydrated and serving.  The
/// fleet layer (src/fleet/, docs/FLEET.md) gates snapshot-shipped bootstrap
/// on it and attributes every answer to the replica that produced it.
///
/// Version 3 added `epoch_id`: the instance epoch the answer was derived
/// under (0 for static instances; see docs/DYNAMIC.md).  Under live updates
/// a client observing an epoch flip mid-stream is seeing an advance, not an
/// inconsistency — answers are consistent *within* an epoch, and the frame
/// says which one.
///
/// `len` counts every byte after the length field itself.  The trailing CRC
/// (CRC-64/XZ, same polynomial as the snapshot format) covers the *whole*
/// frame including the length prefix, so a bit flip anywhere — length
/// included — is caught.  Defense is layered like the snapshot decoder:
/// length bounds first (cap + exact structural size cross-checked against
/// `tenant_len`), then magic, version, field domains, and CRC last; every
/// failure is a typed `WireDecodeError`, never a crash or a bogus decode
/// (the fuzz suite flips every bit of a valid frame to pin this).
///
/// `decode()` is incremental: it returns 0 when the buffer does not yet
/// hold a complete frame (read more bytes), or the number of bytes
/// consumed.  Deadlines travel as *relative* microseconds (0 = none): the
/// client and server clocks never need agreement.

namespace lcaknap::net {

inline constexpr std::uint32_t kRequestMagic = 0x5152'4B4Cu;   // "LKRQ"
inline constexpr std::uint32_t kResponseMagic = 0x5352'4B4Cu;  // "LKRS"
inline constexpr std::uint16_t kWireVersion = 3;
/// Hard cap on `len` for either frame kind; anything larger is kBadLength
/// before a single payload byte is trusted.
inline constexpr std::size_t kMaxFrameBytes = 256;

/// How a request left the server, on the wire.  Mirrors `serve::Outcome`
/// plus the two statuses only the front-end can produce.
enum class WireStatus : std::uint16_t {
  kOk = 0,
  kOverloaded = 1,        ///< shed: engine queue, connection in-flight cap,
                          ///< or tenant admission quota
  kDeadlineExceeded = 2,  ///< shed: the request's deadline passed
  kDegraded = 3,          ///< answered from the warm-state fallback rule
  kError = 4,             ///< evaluation failed
  kBadRequest = 5,        ///< the frame decoded but was semantically invalid
  kUnknownTenant = 6,     ///< no such instance registered with the router
  kShuttingDown = 7,      ///< acknowledgement of an honoured shutdown frame
};

[[nodiscard]] constexpr const char* wire_status_name(WireStatus status) noexcept {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kDeadlineExceeded: return "deadline";
    case WireStatus::kDegraded: return "degraded";
    case WireStatus::kError: return "error";
    case WireStatus::kBadRequest: return "bad_request";
    case WireStatus::kUnknownTenant: return "unknown_tenant";
    case WireStatus::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

/// The engine outcome → wire status projection (a bijection on the shared
/// five; the wire adds its own statuses on top).
[[nodiscard]] constexpr WireStatus wire_status_of(serve::Outcome outcome) noexcept {
  switch (outcome) {
    case serve::Outcome::kOk: return WireStatus::kOk;
    case serve::Outcome::kOverloaded: return WireStatus::kOverloaded;
    case serve::Outcome::kDeadlineExceeded: return WireStatus::kDeadlineExceeded;
    case serve::Outcome::kDegraded: return WireStatus::kDegraded;
    case serve::Outcome::kError: return WireStatus::kError;
  }
  return WireStatus::kError;
}

/// One membership query on the wire.
struct RequestFrame {
  /// Gated remote shutdown (the two-process integration test uses it); the
  /// server ignores the flag unless started with allow_shutdown.
  static constexpr std::uint16_t kFlagShutdown = 1u << 0;
  /// Health/readiness probe for `tenant`: answered instantly on the event
  /// loop (`answer` = warm-and-serving), never routed to an engine.  A
  /// joining replica reports warm through it (snapshot-shipped bootstrap,
  /// docs/FLEET.md); `item` and `deadline_us` are ignored.
  static constexpr std::uint16_t kFlagHealth = 1u << 1;

  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;   ///< echoed verbatim in the response
  std::uint64_t item = 0;
  std::uint64_t deadline_us = 0;  ///< relative budget; 0 = no deadline
  std::string tenant;             ///< StateStore instance id (util::valid_id)
};

/// One answer on the wire.
struct ResponseFrame {
  std::uint64_t request_id = 0;
  /// Which replica produced this response (ServerConfig::replica_id, echoed
  /// on every frame).  The fleet's failover bookkeeping and the consistency
  /// checker attribute answers by it; 0 = unassigned (single-process use).
  std::uint64_t replica_id = 0;
  /// Instance epoch the answer was derived under (`serve::Response::
  /// epoch_id`); 0 for static instances and non-answer statuses.
  std::uint64_t epoch_id = 0;
  WireStatus status = WireStatus::kError;
  bool answer = false;
  bool cache_hit = false;
};

/// Why a frame was rejected.  `kNeedMore` is never thrown (incomplete input
/// is signalled by decode() returning 0); everything else is.
enum class WireError : std::uint8_t {
  kBadLength,   ///< length prefix out of bounds or inconsistent with fields
  kBadMagic,    ///< not a request/response frame
  kBadVersion,  ///< protocol version mismatch
  kBadTenant,   ///< tenant id empty, oversized, or with invalid characters
  kBadStatus,   ///< response status outside the enum
  kBadCrc,      ///< checksum mismatch — corruption in flight
};

[[nodiscard]] constexpr const char* wire_error_name(WireError error) noexcept {
  switch (error) {
    case WireError::kBadLength: return "bad_length";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kBadTenant: return "bad_tenant";
    case WireError::kBadStatus: return "bad_status";
    case WireError::kBadCrc: return "bad_crc";
  }
  return "unknown";
}

/// Typed decode failure; the connection that produced it is torn down (the
/// stream can no longer be trusted to be frame-aligned).
class WireDecodeError : public std::runtime_error {
 public:
  WireDecodeError(WireError error, const std::string& detail)
      : std::runtime_error(detail), error_(error) {}
  [[nodiscard]] WireError error() const noexcept { return error_; }

 private:
  WireError error_;
};

/// Appends one encoded frame to `out`.  Throws `std::invalid_argument` for
/// a tenant that fails `util::valid_id` (encoding never produces an
/// undecodable frame).
void encode(const RequestFrame& frame, std::string& out);
void encode(const ResponseFrame& frame, std::string& out);

/// Decodes one frame from the front of `buffer`.  Returns the bytes
/// consumed, or 0 when the buffer does not yet hold a complete frame.
/// Throws `WireDecodeError` on any malformed input.
[[nodiscard]] std::size_t decode(std::string_view buffer, RequestFrame& frame);
[[nodiscard]] std::size_t decode(std::string_view buffer, ResponseFrame& frame);

/// Exact encoded size of a response frame (they are fixed-layout).
[[nodiscard]] std::size_t encoded_response_size() noexcept;

}  // namespace lcaknap::net

#endif  // LCAKNAP_NET_WIRE_H
