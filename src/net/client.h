#ifndef LCAKNAP_NET_CLIENT_H
#define LCAKNAP_NET_CLIENT_H

#include <atomic>
#include <cstdint>
#include <string>
#include <system_error>

#include "net/wire.h"

/// \file client.h
/// Blocking protocol client: the test harness, the CLI's remote commands,
/// and one load-generator connection each speak through it.
///
/// Two usage modes:
///  * **serial** — `call()` is one round-trip; responses arrive in request
///    order by construction, which is what the byte-identical two-process
///    comparison needs (pipelined responses may legally interleave);
///  * **pipelined** — `send()` queues frames without waiting and `recv()`
///    pulls whatever response completes next; the load generator keeps a
///    window of these in flight per connection, one thread sending while
///    another receives.
///
/// `recv(raw)` optionally captures the exact response bytes as they came
/// off the socket — the integration suite compares those across replicas,
/// pinning Lemma 4.9 at wire granularity, not just answer granularity.

namespace lcaknap::net {

/// The peer is gone: connect refused, the socket reset mid-pipeline, or the
/// server closed the connection with a response outstanding (a partial
/// write/read).  Typed so a failover layer (fleet::FleetClient) can tell
/// "replica dead — retry a sibling" apart from `WireDecodeError` ("frame
/// malformed — retrying elsewhere would just re-decode garbage") and from
/// local configuration errors (plain `std::system_error`).
class ConnectionLost : public std::system_error {
 public:
  ConnectionLost(int err, const std::string& what)
      : std::system_error(err, std::generic_category(), what) {}
};

class Client {
 public:
  /// Connects to `host:port` (blocking).  A refused/unreachable peer throws
  /// `ConnectionLost` (retryable — the replica may be down); local setup
  /// failures (bad host string, no sockets) throw plain `std::system_error`.
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;

  /// One serial round-trip.  Throws `ConnectionLost` when the peer dies
  /// mid-call (retryable) or `WireDecodeError` on a malformed response.
  ResponseFrame call(const RequestFrame& frame, std::string* raw = nullptr);

  /// Queues one frame (blocking write, no response wait).  A peer that
  /// resets mid-write (EPIPE/ECONNRESET, including a partial write) throws
  /// `ConnectionLost`.
  void send(const RequestFrame& frame);
  /// Blocks for the next response frame; `raw`, when non-null, receives
  /// its exact wire bytes.  A connection that closes or resets with the
  /// response outstanding throws `ConnectionLost`.
  ResponseFrame recv(std::string* raw = nullptr);

  void close();
  /// False after `close()`, and once a `ConnectionLost` was thrown.
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0 && !lost_; }

 private:
  /// Maps a socket errno to the typed hierarchy: peer-gone errnos mark the
  /// connection lost and throw `ConnectionLost`; everything else is
  /// `std::system_error`.
  [[noreturn]] void fail(int err, const char* what);
  /// Marks the peer gone.  The socket is shut down, which wakes a `recv()`
  /// blocked on another thread, but the fd stays open until `close()`, so a
  /// `send()` racing on another thread never writes to a reused descriptor.
  void lose() noexcept;
  void write_all(const std::string& bytes);

  int fd_ = -1;
  std::atomic<bool> lost_{false};
  std::string inbuf_;  ///< bytes read past the last decoded response
};

}  // namespace lcaknap::net

#endif  // LCAKNAP_NET_CLIENT_H
