/// TCP front-end edge cases: the listener must survive every way a client
/// can misbehave — vanish mid-line, reset mid-response, trickle nothing
/// until the io timeout — and keep accepting connections afterwards.
/// Each test runs a real listener on a kernel-assigned port.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "src/core/experiment.hpp"
#include "src/core/two_level_model.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/serve/server.hpp"
#include "src/serve/tcp.hpp"

namespace hpcp::serve {
namespace {

struct Fixture {
  Experiment exp;
  TwoLevelModel model;
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    auto* out = new Fixture;
    ExperimentConfig cfg;
    cfg.app_name = "minimd";
    cfg.num_train = 60;
    cfg.num_test = 8;
    cfg.seed = 101;
    out->exp = make_experiment(cfg);
    Rng rng(2);
    out->model.fit(out->exp.problem, rng);
    return out;
  }();
  return *f;
}

std::string predict_line(std::size_t i) {
  const auto& test = fixture().exp.test;
  const auto row = test.configs.row(i % test.size());
  std::string line = "{\"id\":" + std::to_string(i) + ",\"params\":[";
  for (std::size_t d = 0; d < row.size(); ++d) {
    if (d > 0) line += ',';
    obs::json_number_into(line, row[d]);
  }
  line += "],\"scales\":[64]}";
  return line;
}

/// A blocking loopback client with a receive timeout so a server bug can
/// never hang the test binary.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() { close(); }

  [[nodiscard]] bool connected() const { return connected_; }
  [[nodiscard]] int fd() const { return fd_; }

  void send(const std::string& text) {
    const char* p = text.data();
    std::size_t left = text.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n <= 0) return;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  /// Reads one '\n'-terminated line; empty string on EOF/timeout.
  std::string recv_line() {
    std::string line;
    char c;
    for (;;) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return "";
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  /// Hard close: SO_LINGER(0) turns close() into an RST, the abortive
  /// disconnect a crashed client produces.
  void abort() {
    if (fd_ < 0) return;
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    close();
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// One listener on a kernel-assigned port, torn down by a shutdown command.
class Listener {
 public:
  explicit Listener(TcpOptions opts = {}) {
    server_ = std::make_unique<Server>();
    server_->set_model(fixture().model, "");
    opts.bound_port = &port_;
    thread_ = std::thread([this, opts] {
      const auto result = run_tcp_server(*server_, 0, log_, opts);
      ok_ = result.has_value();
    });
    while (port_.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~Listener() {
    if (thread_.joinable()) {
      // Last-resort teardown for a failed test; normal flow already sent
      // shutdown and joined.
      shutdown();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const {
    return port_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::string log() {
    join();
    return log_.str();
  }

  void shutdown() {
    Client client(port());
    client.send("{\"cmd\":\"shutdown\"}\n");
    (void)client.recv_line();
  }

  void join() {
    if (thread_.joinable()) thread_.join();
    EXPECT_TRUE(ok_);
  }

 private:
  std::unique_ptr<Server> server_;
  std::atomic<std::uint16_t> port_{0};
  std::ostringstream log_;
  std::thread thread_;
  bool ok_ = false;
};

TEST(ServeTcp, SequentialConnectionsEachGetServed) {
  Listener listener;
  for (int i = 0; i < 3; ++i) {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    client.send(predict_line(static_cast<std::size_t>(i)) + "\n");
    const std::string response = client.recv_line();
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  }
  listener.shutdown();
  listener.join();
}

TEST(ServeTcp, MidLineDisconnectDoesNotKillTheListener) {
  Listener listener;
  {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    client.send("{\"id\":1,\"par");  // no newline, then gone
    client.close();
  }
  // The next connection is served normally.
  Client client(listener.port());
  ASSERT_TRUE(client.connected());
  client.send(predict_line(0) + "\n");
  EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
  client.close();
  listener.shutdown();
  listener.join();
}

TEST(ServeTcp, MidResponseResetBecomesEpipeNotDeath) {
  Listener listener;
  {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    // A full request, then an abortive RST before reading the response:
    // the server's write path hits ECONNRESET/EPIPE, which must be a
    // logged lifecycle event, not SIGPIPE.
    client.send(predict_line(0) + "\n");
    client.abort();
  }
  for (int i = 0; i < 3; ++i) {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    client.send(predict_line(1) + "\n");
    EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
  }
  listener.shutdown();
  listener.join();
}

TEST(ServeTcp, SilentClientHitsTheIoTimeout) {
  TcpOptions opts;
  opts.io_timeout_ms = 150;
  Listener listener(opts);
  {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    // Send nothing: the server must close the connection instead of
    // blocking on read forever.
    EXPECT_EQ(client.recv_line(), "");  // server-side close -> EOF
  }
  // And the listener is still alive for well-behaved clients.
  Client client(listener.port());
  ASSERT_TRUE(client.connected());
  client.send(predict_line(0) + "\n");
  EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
  client.close();
  listener.shutdown();
  listener.join();
  EXPECT_NE(listener.log().find("timeout"), std::string::npos);
}

TEST(ServeTcp, LifecycleLogNamesTheEndReason) {
  Listener listener;
  {
    Client client(listener.port());
    client.send(predict_line(0) + "\n");
    (void)client.recv_line();
    client.close();  // orderly EOF
  }
  listener.shutdown();
  listener.join();
  const std::string log = listener.log();
  EXPECT_NE(log.find("connection opened"), std::string::npos);
  EXPECT_NE(log.find("connection closed (eof)"), std::string::npos) << log;
  EXPECT_NE(log.find("connection closed (shutdown)"), std::string::npos);
}

TEST(ServeTcp, PipelinedRepliesDoNotWaitForDelayedAcks) {
  // A client that sends without Nagle but acknowledges with delayed ACKs
  // (the Linux default) pipelines 120 requests as 60 pairs, the second
  // request of a pair 100 us after the first, so the daemon answers them
  // in separate windows and the second reply is ready while the first is
  // still unacknowledged. With Nagle's algorithm on the daemon's socket
  // that reply sits in the send queue until the client acknowledges the
  // first — and the client, waiting for both replies before it sends
  // again, has no request to carry that ACK, so the reply leaves at the
  // client's 40 ms delayed-ACK timer: on Linux a third or more of the
  // pairs stall so. A pair waits for both replies, so a slow (sanitizer)
  // build cannot build up a backlog; a few slow pairs are allowed for a
  // loaded host's scheduling.
  Listener listener;
  Client client(listener.port());
  ASSERT_TRUE(client.connected());
  int one = 1;
  ::setsockopt(client.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kPairs = 60;
  std::size_t stalled = 0;
  double slowest_ms = 0.0;
  for (std::size_t p = 0; p < kPairs; ++p) {
    const auto start = Clock::now();
    client.send(predict_line(2 * p) + "\n");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    client.send(predict_line(2 * p + 1) + "\n");
    for (int k = 0; k < 2; ++k) {
      const std::string response = client.recv_line();
      ASSERT_NE(response.find("\"ok\":true"), std::string::npos)
          << "pair " << p << ": " << response;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    stalled += ms > 30.0 ? 1 : 0;
    slowest_ms = std::max(slowest_ms, ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(stalled, 3u) << stalled << " of " << kPairs
                         << " pairs waited on the client's delayed ACK "
                            "(slowest "
                         << slowest_ms << " ms)";
  client.close();
  listener.shutdown();
  listener.join();
}

TEST(ServeTcp, AcceptedConnectionsDisableNagle) {
  // The timing test above shows the symptom only when the kernel's ACK
  // scheduling cooperates; this pins the cause. The listener runs in this
  // process, so the accepted socket is the descriptor whose peer is the
  // client's local address.
  Listener listener;
  Client client(listener.port());
  ASSERT_TRUE(client.connected());
  client.send(predict_line(0) + "\n");
  ASSERT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
  sockaddr_in local{};
  socklen_t len = sizeof(local);
  ASSERT_EQ(::getsockname(client.fd(), reinterpret_cast<sockaddr*>(&local),
                          &len),
            0);
  int accepted = -1;
  for (int fd = 0; fd < 1024 && accepted < 0; ++fd) {
    if (fd == client.fd()) continue;
    sockaddr_in peer{};
    socklen_t plen = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &plen) == 0 &&
        peer.sin_family == AF_INET && peer.sin_port == local.sin_port &&
        peer.sin_addr.s_addr == local.sin_addr.s_addr) {
      accepted = fd;
    }
  }
  ASSERT_GE(accepted, 0) << "accepted socket not found";
  int nodelay = 0;
  socklen_t nlen = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &nlen),
            0);
  EXPECT_NE(nodelay, 0);
  client.close();
  listener.shutdown();
  listener.join();
}

}  // namespace
}  // namespace hpcp::serve
