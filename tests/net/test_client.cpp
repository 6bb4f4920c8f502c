#include "net/client.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>

#include "net/wire.h"

/// \file test_client.cpp
/// The client's typed failure contract (the fleet layer's foundation): a
/// peer that is *gone* — connect refused, closed before answering, closed
/// with a response half-written — throws `ConnectionLost` (retryable: a
/// sibling replica can serve the same query), while a peer that answers
/// *garbage* throws `WireDecodeError` (not retryable: the protocol itself is
/// broken).  A raw listener plays the dying server, byte by byte.

namespace lcaknap::net {
namespace {

/// A hand-rolled accept loop the tests can script: accept one connection,
/// optionally read the request, write exactly `bytes`, close.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    const int enable = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serves exactly one connection: drain `read_bytes` of request, write
  /// `reply`, close.  Runs on the caller's thread.
  void serve_one(std::size_t read_bytes, const std::string& reply) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    std::string sink(read_bytes, '\0');
    std::size_t got = 0;
    while (got < read_bytes) {
      const auto n = ::recv(conn, sink.data() + got, read_bytes - got, 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    if (!reply.empty()) {
      (void)::send(conn, reply.data(), reply.size(), 0);
    }
    ::close(conn);
  }

  /// Closes the listening socket so later connects are refused.
  void stop() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

RequestFrame request_frame() {
  RequestFrame frame;
  frame.request_id = 7;
  frame.item = 3;
  frame.tenant = "alpha";
  return frame;
}

std::string encoded_request_size_probe() {
  std::string bytes;
  encode(request_frame(), bytes);
  return bytes;
}

TEST(ClientConnectionLost, ConnectRefusedIsTypedRetryable) {
  RawListener listener;
  const auto port = listener.port();
  listener.stop();
  EXPECT_THROW(Client("127.0.0.1", port), ConnectionLost);
}

TEST(ClientConnectionLost, PeerClosesBeforeAnyResponse) {
  RawListener listener;
  const auto request_size = encoded_request_size_probe().size();
  std::thread server([&] { listener.serve_one(request_size, ""); });
  Client client("127.0.0.1", listener.port());
  EXPECT_THROW((void)client.call(request_frame()), ConnectionLost);
  server.join();
}

TEST(ClientConnectionLost, PeerClosesWithTheResponseHalfWritten) {
  // The regression this file exists for: the socket closes mid-response.
  // A length-prefixed partial frame is indistinguishable from "more bytes
  // coming" until EOF — the client must surface EOF-with-bytes-outstanding
  // as ConnectionLost, never hang and never mis-decode the prefix.
  ResponseFrame response;
  response.request_id = 7;
  response.status = WireStatus::kOk;
  response.answer = true;
  std::string full;
  encode(response, full);
  const auto request_size = encoded_request_size_probe().size();

  for (const std::size_t cut : {std::size_t{1}, std::size_t{4},
                                std::size_t{10}, full.size() - 1}) {
    RawListener listener;
    std::thread server(
        [&] { listener.serve_one(request_size, full.substr(0, cut)); });
    Client client("127.0.0.1", listener.port());
    EXPECT_THROW((void)client.call(request_frame()), ConnectionLost)
        << "response cut at byte " << cut << " of " << full.size();
    server.join();
  }
}

TEST(ClientConnectionLost, IsDistinctFromWireDecodeError) {
  // A complete frame of garbage is a *protocol* failure: WireDecodeError,
  // not ConnectionLost — the fleet client fails over on the latter only
  // (re-decoding garbage elsewhere cannot help).
  std::string garbage;
  garbage += '\x22';  // little-endian length 0x22 = 34, a response's length
  garbage += '\x00';
  garbage += '\x00';
  garbage += '\x00';
  garbage.append(34, '\x5A');  // wrong magic onward
  const auto request_size = encoded_request_size_probe().size();

  RawListener listener;
  std::thread server([&] { listener.serve_one(request_size, garbage); });
  Client client("127.0.0.1", listener.port());
  EXPECT_THROW((void)client.call(request_frame()), WireDecodeError);
  server.join();

  // And ConnectionLost is catchable as std::system_error for callers that
  // do not care about the distinction.
  RawListener refused;
  const auto port = refused.port();
  refused.stop();
  try {
    Client second("127.0.0.1", port);
    FAIL() << "connect to a closed port must throw";
  } catch (const std::system_error& error) {
    EXPECT_NE(std::string(error.what()).find("connect"), std::string::npos);
  }
}

TEST(ClientConnectionLost, SendAfterPeerResetIsTyped) {
  RawListener listener;
  std::thread server([&] { listener.serve_one(0, ""); });  // close instantly
  Client client("127.0.0.1", listener.port());
  server.join();
  // The first send may land in the kernel buffer before the RST arrives;
  // a short pipelined burst must surface ConnectionLost, not SIGPIPE.
  bool threw = false;
  try {
    for (int i = 0; i < 64; ++i) client.send(request_frame());
    (void)client.recv();
  } catch (const ConnectionLost&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  EXPECT_FALSE(client.connected()) << "a lost connection is not connected";
}

}  // namespace
}  // namespace lcaknap::net
