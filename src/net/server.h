#ifndef LCAKNAP_NET_SERVER_H
#define LCAKNAP_NET_SERVER_H

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "metrics/metrics.h"
#include "net/session.h"
#include "net/wire.h"

/// \file server.h
/// The non-blocking TCP front door: one epoll event loop, many connections.
///
/// Lemma 4.9 makes this shape sound at any fan-out: answers are a pure
/// function of the shared seed, so every connection can hit the same warm
/// state with zero coordination — the only scarce resources are sockets,
/// buffers, and engine queue slots, and each has an explicit shed:
///
///   * **accept**: beyond `max_connections`, new connections are closed
///     immediately (never left dangling in the backlog);
///   * **per-connection in-flight cap**: a connection with
///     `max_inflight_per_connection` frames outstanding gets kOverloaded
///     responses, synchronously, without the frame ever touching a queue —
///     one pipelining-abusive client cannot occupy the engine;
///   * **per-tenant quota and engine admission**: the router's layers,
///     also surfacing as kOverloaded on the wire.
///
/// An overloaded server *answers* (with kOverloaded) rather than stalling
/// the event loop or silently dropping: wire conservation — every decoded
/// frame produces exactly one response frame — is asserted by tests and the
/// E20 bench.
///
/// Threading: the event loop owns all connection state (buffers, in-flight
/// counts); engine threads never touch it.  Completions are marshalled —
/// the router callback encodes the response, appends it with its status to
/// a mutex-guarded ready list, and signals an eventfd the loop polls; the
/// loop counts the status and moves the bytes onto the connection's write
/// buffer.  A completion for a connection that died in the meantime is
/// dropped by id lookup, never a dangling write.
///
/// Malformed frames (typed `WireDecodeError`) get a best-effort kBadRequest
/// response and the connection is closed after flush — past a framing
/// error, the byte stream can no longer be trusted.
///
/// Metrics: `net_connections`, `net_frames_total{status}`,
/// `net_bytes_in_total`, `net_bytes_out_total`, `net_frame_latency_us`,
/// `net_decode_errors_total` (see docs/OBSERVABILITY.md / NETWORKING.md).

namespace lcaknap::net {

struct ServerConfig {
  /// Listen port on 127.0.0.1; 0 picks an ephemeral port (read `port()`).
  std::uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 256;
  /// Frames outstanding per connection before synchronous kOverloaded.
  std::size_t max_inflight_per_connection = 128;
  /// Honour `RequestFrame::kFlagShutdown` (off by default: a remote peer
  /// must not stop a production server; the two-process integration test
  /// and the CLI's --allow-shutdown turn it on).
  bool allow_shutdown = false;
  /// Echoed on every response frame so fleet clients and the consistency
  /// checker can attribute answers (docs/FLEET.md).  0 = unassigned; the
  /// fleet orchestrator assigns each replica a distinct id.
  std::uint64_t replica_id = 0;
  /// listen(2) backlog.
  int backlog = 128;
};

/// Point-in-time wire counters.  Conservation (once quiescent): every
/// response answers either a decoded frame or a decode error, so
/// `frames_in == sum(by_status) - decode_errors` — zero silent drops.
struct ServerStats {
  std::uint64_t accepted = 0;       ///< connections accepted and served
  std::uint64_t at_capacity = 0;    ///< connections shed at the accept gate
  std::uint64_t open = 0;           ///< connections currently open
  std::uint64_t frames_in = 0;      ///< well-formed request frames decoded
  std::uint64_t decode_errors = 0;  ///< typed wire errors (connection torn down)
  std::uint64_t inflight_shed = 0;  ///< kOverloaded from the per-connection cap
  std::uint64_t health_probes = 0;  ///< kFlagHealth frames answered
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Responses sent, indexed by `WireStatus`.
  std::array<std::uint64_t, 8> by_status{};

  /// Responses that answered a well-formed frame (the conservation LHS
  /// partner of `frames_in`).
  [[nodiscard]] std::uint64_t responses_to_frames() const {
    std::uint64_t sum = 0;
    for (const auto count : by_status) sum += count;
    return sum - decode_errors;
  }
};

class Server {
 public:
  /// Binds 127.0.0.1:`config.port`, starts listening and the event loop.
  /// Throws `std::system_error` if the socket setup fails.  `router` must
  /// outlive the server.
  Server(TenantRouter& router, const ServerConfig& config,
         metrics::Registry& registry = metrics::global_registry());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting, closes every connection, and joins the event loop.
  /// In-flight engine work still completes (the router owns it); its
  /// completions for dead connections are dropped.  Idempotent.
  void stop();

  /// Blocks until a gated shutdown frame was honoured or `stop()` ran.
  void wait_shutdown();
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ServerStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string inbuf;
    std::string outbuf;
    std::size_t out_offset = 0;   ///< flushed prefix of outbuf
    std::size_t inflight = 0;     ///< frames routed, response not yet queued
    bool closing = false;         ///< flush outbuf, then close
    bool want_write = false;      ///< EPOLLOUT currently armed
  };

  /// One routed response, encoded off the loop thread.
  struct Completion {
    std::uint64_t conn_id = 0;
    WireStatus status = WireStatus::kOk;
    std::string bytes;
  };
  /// Completion mailbox shared with router callbacks; outlives the server
  /// if engine threads still hold callbacks when it is destroyed.
  struct Sink {
    std::mutex mutex;
    std::vector<Completion> ready;
    int event_fd = -1;
    bool closed = false;
    ~Sink();
    /// Appends `completion` and wakes the loop; no-op once closed.
    void push(Completion completion);
  };

  void event_loop();
  void handle_accept();
  void handle_readable(Connection& conn);
  void handle_writable(Connection& conn);
  void handle_completions();
  void handle_frame(Connection& conn, const RequestFrame& frame,
                    std::chrono::steady_clock::time_point received_at);
  /// Encodes + queues a response on the loop thread and counts its status.
  void respond(Connection& conn, const ResponseFrame& response);
  void count_status(WireStatus status);
  void flush(Connection& conn);
  void update_write_interest(Connection& conn);
  void close_connection(std::uint64_t conn_id);

  TenantRouter* router_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::shared_ptr<Sink> sink_;

  metrics::Gauge* connections_gauge_;
  std::array<metrics::Counter*, 8> frames_by_status_{};
  metrics::Counter* bytes_in_counter_;
  metrics::Counter* bytes_out_counter_;
  metrics::Counter* decode_errors_counter_;
  metrics::Histogram* frame_latency_us_;

  std::unordered_map<std::uint64_t, Connection> connections_;  ///< loop-owned
  std::unordered_map<int, std::uint64_t> conn_by_fd_;          ///< loop-owned
  std::uint64_t next_conn_id_ = 1;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> at_capacity_{0};
  std::atomic<std::uint64_t> open_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> inflight_shed_{0};
  std::atomic<std::uint64_t> health_probes_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::array<std::atomic<std::uint64_t>, 8> by_status_{};

  std::thread loop_;
};

}  // namespace lcaknap::net

#endif  // LCAKNAP_NET_SERVER_H
