#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace lcaknap::net {
namespace {

constexpr std::size_t kReadChunk = 4096;

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

std::vector<double> frame_latency_buckets() {
  // 1 us up by factor 2 to ~0.5 s: loopback cache hits at the bottom,
  // deadline-scale frames at the top.
  return metrics::Histogram::exponential_buckets(1.0, 2.0, 20);
}

}  // namespace

Server::Sink::~Sink() {
  if (event_fd >= 0) ::close(event_fd);
}

void Server::Sink::push(Completion completion) {
  std::lock_guard<std::mutex> lock(mutex);
  if (closed) return;
  ready.push_back(std::move(completion));
  const std::uint64_t one = 1;
  // The eventfd write can only fail if the counter saturates; the loop is
  // already guaranteed to wake in that case.
  (void)!::write(event_fd, &one, sizeof(one));
}

Server::Server(TenantRouter& router, const ServerConfig& config,
               metrics::Registry& registry)
    : router_(&router),
      config_(config),
      connections_gauge_(&registry.gauge(
          "net_connections", "Client connections currently open")),
      bytes_in_counter_(&registry.counter(
          "net_bytes_in_total", "Bytes read from client connections")),
      bytes_out_counter_(&registry.counter(
          "net_bytes_out_total", "Bytes written to client connections")),
      decode_errors_counter_(&registry.counter(
          "net_decode_errors_total",
          "Typed wire decode failures (the connection is closed)")),
      frame_latency_us_(&registry.histogram(
          "net_frame_latency_us",
          "Frame latency in microseconds: request decoded to response "
          "queued on the connection",
          frame_latency_buckets())) {
  for (std::size_t s = 0; s < frames_by_status_.size(); ++s) {
    frames_by_status_[s] = &registry.counter(
        "net_frames_total", "Request frames answered, by wire status",
        {{"status", wire_status_name(static_cast<WireStatus>(s))}});
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int yes = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    throw_errno("bind");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    ::close(listen_fd_);
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, config.backlog) < 0) {
    ::close(listen_fd_);
    throw_errno("listen");
  }
  set_nonblocking(listen_fd_);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    ::close(listen_fd_);
    throw_errno("epoll_create1");
  }
  sink_ = std::make_shared<Sink>();
  sink_->event_fd = ::eventfd(0, EFD_NONBLOCK);
  if (sink_->event_fd < 0) {
    ::close(epoll_fd_);
    ::close(listen_fd_);
    throw_errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(listener)");
  }
  ev.data.fd = sink_->event_fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, sink_->event_fd, &ev) < 0) {
    throw_errno("epoll_ctl(eventfd)");
  }
  loop_ = std::thread([this] { event_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    if (loop_.joinable()) loop_.join();
    return;
  }
  sink_->push({});  // wake the loop; conn id 0 never exists
  if (loop_.joinable()) loop_.join();
  {
    std::lock_guard<std::mutex> lock(sink_->mutex);
    sink_->closed = true;
    sink_->ready.clear();
  }
  for (auto& [id, conn] : connections_) {
    (void)id;
    ::close(conn.fd);
  }
  connections_.clear();
  conn_by_fd_.clear();
  open_.store(0, std::memory_order_relaxed);
  connections_gauge_->set(0.0);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  epoll_fd_ = -1;
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.notify_all();
  }
}

void Server::wait_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_.load(std::memory_order_relaxed) ||
           stopping_.load(std::memory_order_relaxed);
  });
}

void Server::event_loop() {
  std::array<epoll_event, 64> events;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; the server can only stop
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        handle_accept();
        continue;
      }
      if (fd == sink_->event_fd) {
        std::uint64_t drained = 0;
        (void)!::read(sink_->event_fd, &drained, sizeof(drained));
        handle_completions();
        continue;
      }
      const auto by_fd = conn_by_fd_.find(fd);
      if (by_fd == conn_by_fd_.end()) continue;
      const std::uint64_t conn_id = by_fd->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_connection(conn_id);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        const auto it = connections_.find(conn_id);
        if (it != connections_.end()) handle_readable(it->second);
      }
      if (events[i].events & EPOLLOUT) {
        const auto it = connections_.find(conn_id);
        if (it != connections_.end()) handle_writable(it->second);
      }
    }
    // Completions may have been pushed synchronously by route() during
    // handle_readable; drain them without waiting for the eventfd round.
    handle_completions();
  }
}

void Server::handle_accept() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or a transient error: nothing to accept
    if (connections_.size() >= config_.max_connections) {
      // Shed at the gate: close immediately instead of serving slowly or
      // letting the kernel backlog hide the overload.
      at_capacity_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int yes = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
    const std::uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.id = id;
    connections_.emplace(id, std::move(conn));
    conn_by_fd_.emplace(fd, id);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      conn_by_fd_.erase(fd);
      connections_.erase(id);
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_add(1, std::memory_order_relaxed);
    connections_gauge_->add(1.0);
  }
}

void Server::handle_readable(Connection& conn) {
  char chunk[kReadChunk];
  bool peer_closed = false;
  while (true) {
    const ssize_t got = ::read(conn.fd, chunk, sizeof(chunk));
    if (got > 0) {
      bytes_in_.fetch_add(static_cast<std::uint64_t>(got),
                          std::memory_order_relaxed);
      bytes_in_counter_->inc(static_cast<std::uint64_t>(got));
      conn.inbuf.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;
    break;
  }

  const auto received_at = std::chrono::steady_clock::now();
  std::size_t consumed_total = 0;
  while (!conn.closing) {
    RequestFrame frame;
    std::size_t consumed = 0;
    try {
      consumed = decode(
          std::string_view(conn.inbuf).substr(consumed_total), frame);
    } catch (const WireDecodeError&) {
      // The stream is no longer frame-aligned: answer what we can and tear
      // the connection down (typed, counted, never a crash).
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      decode_errors_counter_->inc();
      ResponseFrame response;
      response.request_id = 0;
      response.status = WireStatus::kBadRequest;
      respond(conn, response);
      conn.closing = true;
      break;
    }
    if (consumed == 0) break;
    consumed_total += consumed;
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    handle_frame(conn, frame, received_at);
  }
  if (consumed_total > 0) conn.inbuf.erase(0, consumed_total);

  if (conn.closing) {
    flush(conn);
    if (conn.out_offset >= conn.outbuf.size()) close_connection(conn.id);
    return;
  }
  if (peer_closed) {
    close_connection(conn.id);
    return;
  }
  flush(conn);
  update_write_interest(conn);
}

void Server::handle_frame(Connection& conn, const RequestFrame& frame,
                          std::chrono::steady_clock::time_point received_at) {
  if (frame.flags & RequestFrame::kFlagHealth) {
    // Readiness probe: answered on the loop thread straight from the
    // router's state machine, never queued behind real work — a hydrating
    // replica must still answer "not ready" instantly.
    health_probes_.fetch_add(1, std::memory_order_relaxed);
    ResponseFrame response;
    response.request_id = frame.request_id;
    const auto readiness = router_->readiness(frame.tenant);
    if (readiness == TenantReadiness::kUnknownTenant) {
      response.status = WireStatus::kUnknownTenant;
    } else {
      response.status = WireStatus::kOk;
      response.answer = readiness == TenantReadiness::kWarm;
    }
    respond(conn, response);
    return;
  }
  if (frame.flags & RequestFrame::kFlagShutdown) {
    ResponseFrame response;
    response.request_id = frame.request_id;
    if (config_.allow_shutdown) {
      // Record the request before the peer can read the reply: a client
      // that has heard kShuttingDown must find shutdown_requested() true.
      shutdown_requested_.store(true, std::memory_order_relaxed);
      response.status = WireStatus::kShuttingDown;
      respond(conn, response);
      std::lock_guard<std::mutex> lock(shutdown_mutex_);
      shutdown_cv_.notify_all();
    } else {
      // The flag is gated: an unauthorized shutdown is a bad request, not
      // an outage.
      response.status = WireStatus::kBadRequest;
      respond(conn, response);
    }
    return;
  }
  if (conn.inflight >= config_.max_inflight_per_connection) {
    // Backpressure, synchronously: the frame never touches a queue and the
    // client hears "overloaded" instead of silence.
    inflight_shed_.fetch_add(1, std::memory_order_relaxed);
    ResponseFrame response;
    response.request_id = frame.request_id;
    response.status = WireStatus::kOverloaded;
    respond(conn, response);
    return;
  }
  conn.inflight += 1;
  // The callback runs on an arbitrary engine/router thread (or this one,
  // synchronously, for rejections): encode there, hand the bytes and their
  // status to the loop through the sink.
  auto sink = sink_;
  const std::uint64_t conn_id = conn.id;
  const std::uint64_t replica_id = config_.replica_id;
  metrics::Histogram* latency = frame_latency_us_;
  router_->route(frame, [sink, conn_id, replica_id, latency,
                         received_at](const ResponseFrame& response) {
    ResponseFrame attributed = response;
    attributed.replica_id = replica_id;
    std::string bytes;
    encode(attributed, bytes);
    latency->observe(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - received_at)
                         .count());
    sink->push({conn_id, response.status, std::move(bytes)});
  });
}

void Server::handle_completions() {
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> lock(sink_->mutex);
    ready.swap(sink_->ready);
  }
  for (const auto& [conn_id, status, bytes] : ready) {
    if (bytes.empty()) continue;  // stop() wake marker
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) {
      // The connection died while the engine worked; the response has
      // nowhere to go.  The router already counted the completion.
      continue;
    }
    Connection& conn = it->second;
    if (conn.inflight > 0) conn.inflight -= 1;
    count_status(status);
    conn.outbuf.append(bytes);
    flush(conn);
    update_write_interest(conn);
  }
}

void Server::respond(Connection& conn, const ResponseFrame& response) {
  ResponseFrame attributed = response;
  attributed.replica_id = config_.replica_id;
  encode(attributed, conn.outbuf);
  count_status(response.status);
  frame_latency_us_->observe(0.0);
  flush(conn);
  update_write_interest(conn);
}

void Server::count_status(WireStatus status) {
  const auto s = static_cast<std::size_t>(status);
  if (s < by_status_.size()) {
    by_status_[s].fetch_add(1, std::memory_order_relaxed);
    frames_by_status_[s]->inc();
  }
}

void Server::flush(Connection& conn) {
  while (conn.out_offset < conn.outbuf.size()) {
    // MSG_NOSIGNAL: a peer that resets with a response in flight must be an
    // EPIPE errno (-> conn.closing below), never a process-fatal SIGPIPE.
    const ssize_t wrote =
        ::send(conn.fd, conn.outbuf.data() + conn.out_offset,
               conn.outbuf.size() - conn.out_offset, MSG_NOSIGNAL);
    if (wrote > 0) {
      bytes_out_.fetch_add(static_cast<std::uint64_t>(wrote),
                           std::memory_order_relaxed);
      bytes_out_counter_->inc(static_cast<std::uint64_t>(wrote));
      conn.out_offset += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (wrote < 0 && errno == EINTR) continue;
    conn.closing = true;  // peer is gone; close once we unwind
    break;
  }
  if (conn.out_offset >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_offset = 0;
  } else if (conn.out_offset > kReadChunk) {
    conn.outbuf.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
}

void Server::update_write_interest(Connection& conn) {
  const bool want = conn.out_offset < conn.outbuf.size();
  if (want == conn.want_write) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::handle_writable(Connection& conn) {
  flush(conn);
  if (conn.closing && conn.out_offset >= conn.outbuf.size()) {
    close_connection(conn.id);
    return;
  }
  update_write_interest(conn);
}

void Server::close_connection(std::uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  const int fd = it->second.fd;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conn_by_fd_.erase(fd);
  connections_.erase(it);
  open_.fetch_sub(1, std::memory_order_relaxed);
  connections_gauge_->add(-1.0);
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.at_capacity = at_capacity_.load(std::memory_order_relaxed);
  stats.open = open_.load(std::memory_order_relaxed);
  stats.frames_in = frames_in_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  stats.inflight_shed = inflight_shed_.load(std::memory_order_relaxed);
  stats.health_probes = health_probes_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  for (std::size_t s = 0; s < by_status_.size(); ++s) {
    stats.by_status[s] = by_status_[s].load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace lcaknap::net
