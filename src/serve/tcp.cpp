#include "src/serve/tcp.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/serve/admin.hpp"

namespace hpcp::serve {

namespace {

Error io_error(const std::string& what) {
  return Error{ErrorCode::Io, what + ": " + std::strerror(errno), {}};
}

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Responses waiting for a reader are bounded: a client that pipelines
/// requests but never drains its socket is closed as an error instead of
/// ballooning the daemon's memory.
constexpr std::size_t kMaxOutbufBytes = std::size_t{64} << 20;

/// One live client connection: reassembly state for inbound lines and an
/// outbound buffer for responses the socket has not accepted yet.
struct Conn {
  int fd = -1;
  std::uint64_t id = 0;  ///< accept order; window drain is pinned to it
  std::string acc;       ///< current partial request line
  bool discarding = false;  ///< over-long line: dropping bytes to '\n'
  std::vector<Server::BatchLine> ready;  ///< complete, unanswered lines
  std::string outbuf;
  std::size_t out_off = 0;
  bool saw_eof = false;
  bool dead = false;  ///< transport error; close without draining
  bool writable_armed = false;
  const char* reason = "eof";
  std::uint64_t last_activity = 0;
  /// Write-drained tracing: cumulative bytes ever queued / ever written
  /// on this connection, plus (queued-bytes watermark, request id) marks.
  /// Once written_bytes passes a mark the kernel has accepted that
  /// request's whole response and Server::note_write_drained stamps it.
  std::uint64_t queued_bytes = 0;
  std::uint64_t written_bytes = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> marks;
};

/// One admin scrape connection (see admin.hpp): buffer the request head,
/// write one HTTP response, close. Lives on the same epoll loop but never
/// enters handle_batch and is never fault-injected — the data plane's
/// response bytes cannot depend on scraping.
struct AdminConn {
  int fd = -1;
  std::string inbuf;
  std::string outbuf;
  std::size_t out_off = 0;
  bool responded = false;  ///< head complete; outbuf holds the response
  bool dead = false;
  bool writable_armed = false;
  std::uint64_t last_activity = 0;
};

/// Line reassembly with the same contract as the stream loop's bounded
/// read: a line longer than `max` is discarded up to its newline and
/// surfaces as one too_long marker (answered with a typed error), so a
/// hostile client cannot balloon memory; everything else becomes a
/// BatchLine when its '\n' arrives.
void push_byte(Conn& c, char ch, std::size_t max) {
  if (c.discarding) {
    if (ch == '\n') {
      c.discarding = false;
      c.ready.push_back({std::string(), true});
    }
    return;
  }
  if (ch == '\n') {
    c.ready.push_back({std::move(c.acc), false});
    c.acc.clear();
    return;
  }
  if (c.acc.size() >= max) {
    c.acc.clear();
    c.discarding = true;
    return;
  }
  c.acc.push_back(ch);
}

/// EOF flushes reassembly exactly like the stream loop: a final
/// unterminated line is still served, a half-discarded over-long line
/// still gets its typed error.
void flush_partial_at_eof(Conn& c) {
  if (c.discarding) {
    c.discarding = false;
    c.ready.push_back({std::string(), true});
  } else if (!c.acc.empty()) {
    c.ready.push_back({std::move(c.acc), false});
    c.acc.clear();
  }
}

/// Drains everything the socket has, through the fault model, into the
/// connection's line assembler. Sets saw_eof / dead instead of throwing;
/// the event loop decides when the connection actually closes.
void drain_reads(Conn& c, FaultInjector* faults, std::size_t max_line) {
  char buf[4096];
  for (;;) {
    std::size_t want = sizeof(buf);
    if (faults != nullptr && faults->enabled()) {
      if (faults->read_disconnects()) {
        // The peer vanishes, as after a real RST: nothing more is read
        // or answered. Treating it as EOF instead would serve the torn
        // fragment a short read left in the assembler as a final line
        // and answer a request the client never sent.
        c.dead = true;
        c.reason = "injected-disconnect";
        return;
      }
      want = faults->clamp_read(want);
    }
    ssize_t n;
    do {
      n = ::recv(c.fd, buf, want, 0);
    } while (n < 0 && errno == EINTR);
    if (n == 0) {
      c.saw_eof = true;
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      c.dead = true;
      c.reason = errno == ECONNRESET ? "econnreset" : "error";
      return;
    }
    c.last_activity = steady_ms();
    for (ssize_t i = 0; i < n; ++i) push_byte(c, buf[i], max_line);
  }
}

/// Writes as much of the outbound buffer as the socket accepts right now
/// (MSG_NOSIGNAL: a vanished peer is EPIPE on our return path, never
/// SIGPIPE). Partial progress is kept; the loop arms EPOLLOUT for the
/// rest.
void drain_writes(Conn& c, FaultInjector* faults) {
  while (c.out_off < c.outbuf.size()) {
    std::size_t len = c.outbuf.size() - c.out_off;
    if (faults != nullptr && faults->enabled()) {
      if (faults->write_fails()) {
        c.dead = true;
        c.reason = "injected-disconnect";
        return;
      }
      len = faults->clamp_write(len);
    }
    ssize_t n;
    do {
      n = ::send(c.fd, c.outbuf.data() + c.out_off, len, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      c.dead = true;
      c.reason = errno == EPIPE          ? "epipe"
                 : errno == ECONNRESET   ? "econnreset"
                                         : "error";
      return;
    }
    c.out_off += static_cast<std::size_t>(n);
    c.written_bytes += static_cast<std::uint64_t>(n);
    c.last_activity = steady_ms();
  }
  c.outbuf.clear();
  c.out_off = 0;
}

/// Stamps write-drained on every request whose response bytes the kernel
/// has now fully accepted (written_bytes passed the mark's watermark).
void pop_drained_marks(Conn& c, Server& server) {
  std::size_t done = 0;
  while (done < c.marks.size() && c.marks[done].first <= c.written_bytes) {
    server.note_write_drained(c.marks[done].second);
    ++done;
  }
  if (done > 0) {
    c.marks.erase(c.marks.begin(),
                  c.marks.begin() + static_cast<std::ptrdiff_t>(done));
  }
}

/// Reads until the admin request head is complete (or overflows its
/// bound), then renders the response into outbuf. EOF or a transport
/// error before completion just kills the connection — there is nothing
/// to answer.
void admin_drain_reads(AdminConn& a, Server& server) {
  char buf[1024];
  for (;;) {
    ssize_t n;
    do {
      n = ::recv(a.fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n == 0) {
      // EOF before a complete head leaves nothing to answer; after the
      // response it is just the client being done.
      if (!a.responded) a.dead = true;
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      a.dead = true;
      return;
    }
    a.last_activity = steady_ms();
    // Trailing bytes after the head (an over-long request still being
    // sent, extra headers) are drained and discarded: closing a socket
    // with unread input would RST the response out from under the
    // client.
    if (a.responded) continue;
    a.inbuf.append(buf, static_cast<std::size_t>(n));
    const bool overflow = a.inbuf.size() > kMaxAdminRequestBytes;
    if (overflow || admin_request_complete(a.inbuf)) {
      a.outbuf = handle_admin_request(server, a.inbuf, overflow);
      a.responded = true;
    }
  }
}

void admin_drain_writes(AdminConn& a) {
  while (a.out_off < a.outbuf.size()) {
    ssize_t n;
    do {
      n = ::send(a.fd, a.outbuf.data() + a.out_off,
                 a.outbuf.size() - a.out_off, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      a.dead = true;
      return;
    }
    a.out_off += static_cast<std::size_t>(n);
    a.last_activity = steady_ms();
  }
}

/// Nonblocking loopback listener bound to 127.0.0.1:`*port`; on success
/// `*port` is updated to the actually bound port (port 0 = kernel picks).
Expected<int> make_loopback_listener(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return io_error("socket");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(*port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Error err = io_error("bind 127.0.0.1:" + std::to_string(*port));
    ::close(fd);
    return err;
  }
  if (::listen(fd, 64) != 0) {
    const Error err = io_error("listen");
    ::close(fd);
    return err;
  }
  const int fl = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    *port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

Expected<void> run_tcp_server(Server& server, std::uint16_t port,
                              std::ostream& log, const TcpOptions& opts) {
  // A client that disconnects while we are writing its response must be a
  // recoverable EPIPE, not a fatal SIGPIPE. send(MSG_NOSIGNAL) covers the
  // socket path; this covers any fallback write() and keeps the contract
  // even if a future transport forgets the flag.
  std::signal(SIGPIPE, SIG_IGN);

  Expected<int> listener_or = make_loopback_listener(&port);
  if (!listener_or.has_value()) return listener_or.error();
  const int listener = listener_or.value();

  const int epfd = ::epoll_create1(0);
  if (epfd < 0) {
    const Error err = io_error("epoll_create1");
    ::close(listener);
    return err;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener;
  if (::epoll_ctl(epfd, EPOLL_CTL_ADD, listener, &ev) != 0) {
    const Error err = io_error("epoll_ctl add listener");
    ::close(epfd);
    ::close(listener);
    return err;
  }

  // The admin scrape plane is a second listener in the same epfd; a bind
  // failure here is a startup error, not something to limp past — an
  // operator who asked for observability should not silently lose it.
  int admin_listener = -1;
  std::uint16_t admin_port = 0;
  if (opts.admin_port >= 0) {
    admin_port = static_cast<std::uint16_t>(opts.admin_port);
    Expected<int> admin_or = make_loopback_listener(&admin_port);
    if (!admin_or.has_value()) {
      ::close(epfd);
      ::close(listener);
      return admin_or.error();
    }
    admin_listener = admin_or.value();
    epoll_event aev{};
    aev.events = EPOLLIN;
    aev.data.fd = admin_listener;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, admin_listener, &aev) != 0) {
      const Error err = io_error("epoll_ctl add admin listener");
      ::close(admin_listener);
      ::close(epfd);
      ::close(listener);
      return err;
    }
  }

  log << "serve: listening on 127.0.0.1:" << port << '\n' << std::flush;
  if (opts.bound_port != nullptr) {
    opts.bound_port->store(port, std::memory_order_release);
  }
  if (admin_listener >= 0) {
    log << "serve: admin listening on 127.0.0.1:" << admin_port << '\n'
        << std::flush;
    if (opts.admin_bound_port != nullptr) {
      opts.admin_bound_port->store(admin_port, std::memory_order_release);
    }
  }

  const std::size_t max_line = server.options().max_line_bytes;
  std::map<std::uint64_t, Conn> conns;  // keyed by accept order
  std::unordered_map<int, std::uint64_t> by_fd;
  std::unordered_map<int, AdminConn> admin_conns;  // keyed by fd
  std::uint64_t next_id = 1;
  std::uint64_t seq = 0;
  bool shutdown = false;

  const auto close_conn = [&](Conn& c, const char* reason) {
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    by_fd.erase(c.fd);
    log << "serve: connection closed (" << reason << ")\n" << std::flush;
    if (std::strcmp(reason, "timeout") == 0) {
      obs::count("serve.connection_timeouts");
    } else if (std::strcmp(reason, "eof") != 0 &&
               std::strcmp(reason, "shutdown") != 0) {
      obs::count("serve.connection_errors");
    }
  };

  while (!shutdown) {
    // Wake at the earliest idle deadline (or block: an idle listener with
    // no deadline waits exactly like the old blocking accept did).
    int timeout = -1;
    if (opts.io_timeout_ms > 0 && (!conns.empty() || !admin_conns.empty())) {
      const std::uint64_t now = steady_ms();
      std::uint64_t earliest = (std::numeric_limits<std::uint64_t>::max)();
      for (const auto& [id, c] : conns) {
        earliest = std::min(
            earliest,
            c.last_activity + static_cast<std::uint64_t>(opts.io_timeout_ms));
      }
      for (const auto& [fd, a] : admin_conns) {
        earliest = std::min(
            earliest,
            a.last_activity + static_cast<std::uint64_t>(opts.io_timeout_ms));
      }
      timeout = earliest <= now
                    ? 0
                    : static_cast<int>(std::min<std::uint64_t>(
                          earliest - now,
                          (std::numeric_limits<int>::max)()));
    }

    epoll_event events[64];
    const int nev = ::epoll_wait(epfd, events, 64, timeout);
    if (nev < 0) {
      if (errno == EINTR) continue;
      const Error err = io_error("epoll_wait");
      for (auto& [id, c] : conns) {
        ::close(c.fd);
      }
      for (auto& [fd, a] : admin_conns) {
        ::close(fd);
      }
      ::close(epfd);
      if (admin_listener >= 0) ::close(admin_listener);
      ::close(listener);
      return err;
    }

    for (int e = 0; e < nev; ++e) {
      const int fd = events[e].data.fd;
      if (fd == listener) {
        for (;;) {
          int cfd;
          do {
            cfd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
          } while (cfd < 0 && errno == EINTR);
          if (cfd < 0) break;  // EAGAIN, or a transient accept error
          if (conns.size() >= opts.max_connections) {
            // Shedding at the front door keeps the event loop's state
            // bounded; the client sees an immediate close.
            log << "serve: connection rejected (capacity)\n" << std::flush;
            obs::count("serve.connection_rejects");
            ::close(cfd);
            continue;
          }
          // Each window's responses leave in one send per connection, so
          // Nagle's algorithm has nothing to coalesce. Against a client
          // with delayed ACKs it would instead hold a reply computed while
          // the previous one is unacknowledged until the client's next
          // request (or its 40 ms delayed-ACK timer) carried that ACK.
          const int nodelay = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                       sizeof(nodelay));
          Conn c;
          c.fd = cfd;
          c.id = next_id++;
          c.last_activity = steady_ms();
          epoll_event cev{};
          cev.events = EPOLLIN;
          cev.data.fd = cfd;
          if (::epoll_ctl(epfd, EPOLL_CTL_ADD, cfd, &cev) != 0) {
            ::close(cfd);
            continue;
          }
          by_fd[cfd] = c.id;
          conns.emplace(c.id, std::move(c));
          log << "serve: connection opened\n" << std::flush;
          obs::count("serve.connections");
        }
        continue;
      }
      if (admin_listener >= 0 && fd == admin_listener) {
        for (;;) {
          int afd;
          do {
            afd = ::accept4(admin_listener, nullptr, nullptr, SOCK_NONBLOCK);
          } while (afd < 0 && errno == EINTR);
          if (afd < 0) break;
          if (admin_conns.size() >= opts.max_admin_connections) {
            log << "serve: admin connection rejected (capacity)\n"
                << std::flush;
            ::close(afd);
            continue;
          }
          epoll_event aev{};
          aev.events = EPOLLIN;
          aev.data.fd = afd;
          if (::epoll_ctl(epfd, EPOLL_CTL_ADD, afd, &aev) != 0) {
            ::close(afd);
            continue;
          }
          AdminConn a;
          a.fd = afd;
          a.last_activity = steady_ms();
          admin_conns.emplace(afd, std::move(a));
        }
        continue;
      }
      const auto ait = admin_conns.find(fd);
      if (ait != admin_conns.end()) {
        AdminConn& a = ait->second;
        if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 &&
            !a.dead) {
          admin_drain_reads(a, server);
        }
        if ((events[e].events & EPOLLOUT) != 0 && !a.dead) {
          admin_drain_writes(a);
        }
        continue;
      }
      const auto idit = by_fd.find(fd);
      if (idit == by_fd.end()) continue;  // already closed this wake
      Conn& c = conns.at(idit->second);
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 &&
          !c.saw_eof && !c.dead) {
        drain_reads(c, opts.faults, max_line);
        if (c.saw_eof) flush_partial_at_eof(c);
      }
      if ((events[e].events & EPOLLOUT) != 0 && !c.dead) {
        drain_writes(c, opts.faults);
      }
    }

    // Harvest the window: every complete line from every live connection,
    // in connection-accept order — the pinned cross-connection order that
    // seq_log records. One handle_batch call serves them all.
    std::vector<Server::BatchLine> lines;
    std::vector<std::uint64_t> owner;
    for (auto& [id, c] : conns) {
      if (c.dead) continue;  // transport is gone; nobody to answer
      for (auto& bl : c.ready) {
        owner.push_back(id);
        lines.push_back(std::move(bl));
      }
      c.ready.clear();
    }
    if (!lines.empty()) {
      if (opts.seq_log != nullptr) {
        for (std::size_t k = 0; k < lines.size(); ++k) {
          *opts.seq_log << "seq " << seq++ << " conn " << owner[k] << '\n';
        }
        opts.seq_log->flush();
      }
      obs::gauge_set("serve.window_lines",
                     static_cast<double>(lines.size()));
      const Server::BatchOutcome outcome = server.handle_batch(lines);
      for (std::size_t k = 0; k < outcome.consumed; ++k) {
        if (outcome.responses[k].empty()) continue;
        const auto cit = conns.find(owner[k]);
        if (cit == conns.end() || cit->second.dead) continue;
        Conn& c = cit->second;
        c.outbuf += outcome.responses[k];
        c.outbuf += '\n';
        c.queued_bytes += outcome.responses[k].size() + 1;
        if (outcome.request_ids[k] != 0) {
          c.marks.emplace_back(c.queued_bytes, outcome.request_ids[k]);
        }
      }
      shutdown = outcome.shutdown;
    }

    // Push responses out and (re)arm EPOLLOUT only while bytes wait — a
    // level-triggered EPOLLOUT on an idle socket would spin the loop.
    for (auto& [id, c] : conns) {
      if (!c.dead && !c.outbuf.empty()) drain_writes(c, opts.faults);
      pop_drained_marks(c, server);
      if (!c.dead && c.outbuf.size() - c.out_off > kMaxOutbufBytes) {
        c.dead = true;
        c.reason = "error";
      }
      const bool want = !c.dead && c.out_off < c.outbuf.size();
      if (want != c.writable_armed) {
        epoll_event cev{};
        cev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
        cev.data.fd = c.fd;
        ::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &cev);
        c.writable_armed = want;
      }
    }

    // Close what finished: errors immediately, EOF once everything the
    // client sent is answered and written, idlers past the deadline.
    const std::uint64_t now = steady_ms();
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& c = it->second;
      const bool drained =
          c.ready.empty() && c.acc.empty() && c.outbuf.empty();
      if (c.dead) {
        close_conn(c, c.reason);
        it = conns.erase(it);
      } else if (c.saw_eof && drained) {
        close_conn(c, c.reason);  // "eof" or "injected-disconnect"
        it = conns.erase(it);
      } else if (opts.io_timeout_ms > 0 &&
                 now >= c.last_activity +
                            static_cast<std::uint64_t>(opts.io_timeout_ms)) {
        close_conn(c, "timeout");
        it = conns.erase(it);
      } else {
        ++it;
      }
    }

    // Admin connections: push the response, close once it is fully
    // written (one request per connection), sweep idlers and errors.
    for (auto it = admin_conns.begin(); it != admin_conns.end();) {
      AdminConn& a = it->second;
      if (!a.dead && a.responded && a.out_off < a.outbuf.size()) {
        admin_drain_writes(a);
      }
      const bool done = a.responded && a.out_off >= a.outbuf.size();
      const bool timed_out =
          opts.io_timeout_ms > 0 &&
          now >= a.last_activity +
                     static_cast<std::uint64_t>(opts.io_timeout_ms);
      if (a.dead || done || timed_out) {
        ::epoll_ctl(epfd, EPOLL_CTL_DEL, a.fd, nullptr);
        ::close(a.fd);
        it = admin_conns.erase(it);
        continue;
      }
      const bool want = a.responded && a.out_off < a.outbuf.size();
      if (want != a.writable_armed) {
        epoll_event aev{};
        aev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
        aev.data.fd = a.fd;
        ::epoll_ctl(epfd, EPOLL_CTL_MOD, a.fd, &aev);
        a.writable_armed = want;
      }
      ++it;
    }
  }

  // Shutdown: best-effort flush of already-routed responses (the client
  // that asked for shutdown is still waiting for its ack), then close
  // everything.
  for (auto& [id, c] : conns) {
    const std::uint64_t deadline = steady_ms() + 1000;
    while (!c.dead && c.out_off < c.outbuf.size() &&
           steady_ms() < deadline) {
      pollfd pfd{};
      pfd.fd = c.fd;
      pfd.events = POLLOUT;
      int rc;
      do {
        rc = ::poll(&pfd, 1, 100);
      } while (rc < 0 && errno == EINTR);
      if (rc <= 0) break;
      drain_writes(c, opts.faults);
    }
    pop_drained_marks(c, server);
    close_conn(c, "shutdown");
  }
  conns.clear();
  for (auto& [fd, a] : admin_conns) {
    ::close(fd);
  }
  admin_conns.clear();
  ::close(epfd);
  if (admin_listener >= 0) ::close(admin_listener);
  ::close(listener);
  log << "serve: shutdown\n" << std::flush;
  return {};
}

}  // namespace hpcp::serve
