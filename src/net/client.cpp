#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

namespace lcaknap::net {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Socket errors that mean "the peer is gone", not "this process is broken":
/// the retryable class a failover layer may safely answer by trying a
/// sibling replica.
[[nodiscard]] bool peer_gone(int err) noexcept {
  return err == ECONNRESET || err == ECONNREFUSED || err == ECONNABORTED ||
         err == EPIPE || err == ETIMEDOUT || err == EHOSTUNREACH ||
         err == ENETUNREACH || err == ENETRESET;
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::system_error(EINVAL, std::generic_category(),
                            "inet_pton('" + host + "')");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    // A refused or unreachable connect is the canonical "replica dead"
    // signal; surface it as the retryable class.
    throw ConnectionLost(err, "connect to " + host + ":" +
                                  std::to_string(port));
  }
  const int yes = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      lost_(other.lost_.load()),
      inbuf_(std::move(other.inbuf_)) {}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::lose() noexcept {
  lost_ = true;
  (void)::shutdown(fd_, SHUT_RDWR);
}

void Client::fail(int err, const char* what) {
  if (peer_gone(err)) {
    // A dead peer makes the connection useless; mark it so connected()
    // reports the truth and a pooling caller (fleet::FleetClient)
    // reconnects cleanly.
    lose();
    throw ConnectionLost(err, what);
  }
  throw std::system_error(err, std::generic_category(), what);
}

void Client::write_all(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that reset must surface as EPIPE -> typed
    // ConnectionLost, never a process-fatal SIGPIPE.
    const ssize_t wrote =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      // A reset mid-frame leaves a partial write on the wire: the frame
      // never reached the server whole, so the call is safely retryable
      // against a sibling replica.
      fail(errno, sent == 0 ? "write" : "write (partial frame sent)");
    }
    sent += static_cast<std::size_t>(wrote);
  }
}

void Client::send(const RequestFrame& frame) {
  std::string bytes;
  encode(frame, bytes);
  write_all(bytes);
}

ResponseFrame Client::recv(std::string* raw) {
  while (true) {
    ResponseFrame response;
    const std::size_t consumed = decode(inbuf_, response);
    if (consumed != 0) {
      if (raw != nullptr) raw->assign(inbuf_, 0, consumed);
      inbuf_.erase(0, consumed);
      return response;
    }
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      fail(errno, "read");
    }
    if (got == 0) {
      // EOF with a response outstanding: the server died (or tore the
      // connection down) mid-pipeline — typed retryable, distinct from a
      // malformed frame (WireDecodeError).
      lose();
      throw ConnectionLost(ECONNRESET,
                           "server closed the connection mid-response");
    }
    inbuf_.append(chunk, static_cast<std::size_t>(got));
  }
}

ResponseFrame Client::call(const RequestFrame& frame, std::string* raw) {
  send(frame);
  return recv(raw);
}

}  // namespace lcaknap::net
