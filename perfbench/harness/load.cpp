// The open-loop load generator: one event-driven thread, at most four
// persistent loopback connections, requests sent on a seeded schedule of
// exponential gaps and timed from when they were due.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <chrono>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "harness/bench.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kNsPerS = 1000000000ULL;
/// Persistent connections to the daemon, requests spread round robin.
constexpr std::size_t kConns = 4;
/// How long a phase waits for its last responses before the rest count
/// as timed out.
constexpr std::uint64_t kDrainNs = 3 * kNsPerS;

struct Req {
  std::size_t line = 0;  ///< index into the phase's source lines
  std::uint64_t due = 0;
  std::uint64_t sent = 0;
  std::uint64_t done = 0;
  std::size_t conn = 0;
  bool ingest = false;
  bool ok = false;
  bool answered = false;
};

struct Conn {
  int fd = -1;
  std::string rbuf;
  std::string wbuf;
  std::size_t woff = 0;
  bool want_out = false;
  std::deque<std::size_t> inflight;  ///< request indices, send order
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    throw std::runtime_error("connect to daemon failed");
  }
  return fd;
}

/// One blocking HTTP/1.0 GET against the admin port.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    (void)!::write(fd, req.data(), req.size());
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      body.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const auto pos = body.find("\r\n\r\n");
  if (pos == std::string::npos) return {};
  body.erase(0, pos + 4);
  while (!body.empty() && std::isspace(static_cast<unsigned char>(body.back()))) {
    body.pop_back();
  }
  return body;
}

/// Quantile q of `v` taken in windows of at least 1000 consecutive
/// samples (send order) and reported as the median over windows: one
/// host stall spoils one window, not the phase.
double windowed(const std::vector<double>& v, double q) {
  const std::size_t windows = std::max<std::size_t>(1, v.size() / 1000);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto lo = static_cast<std::ptrdiff_t>(v.size() * w / windows);
    const auto hi = static_cast<std::ptrdiff_t>(v.size() * (w + 1) / windows);
    per_window.push_back(
        quantile(std::vector<double>(v.begin() + lo, v.begin() + hi), q));
  }
  return median(per_window);
}

/// Summary of one phase (or ladder step).
struct PhaseStats {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  std::size_t first_line = 0;  ///< source line index of the first request
  std::size_t sent = 0, ok = 0, failed = 0, ingest_sent = 0;
  std::vector<double> predict_us;  ///< failed requests are +inf
  std::vector<double> ingest_us;
  std::vector<double> late_us;
  /// Requests outstanding as the last tenth of the phase was sent, median
  /// over those sends: a short stall right at the end spoils no verdict.
  std::size_t backlog_end = 0;
  /// CPU time the daemon spent over the phase (its threads' run time).
  std::uint64_t daemon_cpu_ns = 0;
  /// Responses held back until the client's next request on the same
  /// connection: the daemon's sockets keep Nagle's algorithm, so with a
  /// delayed-ACK client a reply waits for the ACK that rides on the next
  /// request. Counted when a reply took over 2 ms and arrived within
  /// 200 us after that next request was sent.
  std::size_t lockstep = 0;

  /// Quantile q of predict latency, windowed (see windowed()).
  [[nodiscard]] double p(double q) const { return windowed(predict_us, q); }
  /// Windowed generator lateness p99: above a limit, the generator itself
  /// fell behind its schedule for much of the phase.
  [[nodiscard]] double late_p99() const { return windowed(late_us, 0.99); }

  /// The queue near the end of sending would take longer than the
  /// latency limit to drain at the offered rate.
  [[nodiscard]] bool backlog_grows(double limit_us) const {
    return static_cast<double>(backlog_end) > rate * limit_us * 1e-6 + 8.0;
  }
  [[nodiscard]] std::string json() const {
    return JsonObject()
        .str("name", name)
        .num("rate", rate)
        .num("seconds", seconds)
        .integer("first_line", first_line)
        .integer("sent", sent)
        .integer("ok", ok)
        .integer("failed", failed)
        .integer("ingest_sent", ingest_sent)
        .num("p50_us", p(0.5))
        .num("p90_us", p(0.9))
        .num("p99_us", p(0.99))
        .num("p99_all_us", quantile(predict_us, 0.99))
        .num("ingest_p99_us", quantile(ingest_us, 0.99))
        .num("cpu_us_per_ok", static_cast<double>(daemon_cpu_ns) * 1e-3 /
                                  static_cast<double>(std::max<std::size_t>(1, ok)))
        .num("late_p99_us", late_p99())
        .num("late_p99_all_us", quantile(late_us, 0.99))
        .num("late_max_us", quantile(late_us, 1.0))
        .integer("backlog_end", backlog_end)
        .integer("lockstep", lockstep)
        .dump();
  }
};

class Generator {
 public:
  Generator(int port, int daemon_pid, std::deque<std::string>& pairs)
      : pairs_(pairs), daemon_pid_(daemon_pid) {
    ep_ = ::epoll_create1(0);
    for (std::size_t c = 0; c < kConns; ++c) {
      Conn conn;
      conn.fd = connect_loopback(port);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, conn.fd, &ev);
      conns_.push_back(std::move(conn));
    }
  }

  ~Generator() {
    for (auto& c : conns_) ::close(c.fd);
    ::close(ep_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Sends lines[cursor..] on an open-loop schedule at `rate` for
  /// `seconds`, then drains; each (request, response) pair is kept for
  /// the pairs file. A `finite` phase ends early when its lines run out;
  /// any other phase treats that as an undersized stream.
  PhaseStats run(const std::string& name, const std::vector<std::string>& lines,
                 std::size_t* cursor, double rate, double seconds,
                 std::uint64_t seed, bool finite = false) {
    PhaseStats st;
    st.name = name;
    st.rate = rate;
    st.seconds = seconds;
    st.first_line = *cursor;
    reqs_.clear();
    StreamRng gaps(seed);
    const double mean_gap_ns = 1e9 / rate;
    const std::uint64_t cpu_before =
        daemon_pid_ > 0 ? process_cpu_ns(daemon_pid_) : 0;
    const std::uint64_t start = now_ns() + 1000000;  // 1 ms lead-in
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t next_due =
        start + static_cast<std::uint64_t>(gaps.exponential(mean_gap_ns));
    std::vector<double> backlog;  // outstanding after each send
    std::size_t rr = 0;
    bool sending = true;
    std::uint64_t drain_deadline = 0;
    for (;;) {
      const std::uint64_t now = now_ns();
      while (sending && next_due <= now) {
        if (next_due >= end || *cursor >= lines.size()) {
          if (*cursor >= lines.size() && !finite) {
            throw std::runtime_error("request stream exhausted in " + name);
          }
          sending = false;
          drain_deadline = end + kDrainNs;
          break;
        }
        Req r;
        r.line = (*cursor)++;
        r.due = next_due;
        r.ingest = lines[r.line].rfind("{\"cmd\":\"ingest\"", 0) == 0;
        const std::size_t idx = reqs_.size();
        reqs_.push_back(r);
        send(rr++ % conns_.size(), idx, lines[r.line]);
        backlog.push_back(static_cast<double>(outstanding_));
        next_due += static_cast<std::uint64_t>(gaps.exponential(mean_gap_ns));
      }
      if (sending && next_due >= end) {
        sending = false;
        drain_deadline = end + kDrainNs;
      }
      if (!sending && outstanding_ == 0) break;
      if (!sending && now >= drain_deadline) break;
      // Busy-polled, never slept: a timer wake-up on an idle core of a
      // virtual machine can arrive milliseconds late, and the generator
      // owns one core.
      poll(lines);
    }
    if (daemon_pid_ > 0) {
      st.daemon_cpu_ns = process_cpu_ns(daemon_pid_) - cpu_before;
    }
    st.backlog_end = static_cast<std::size_t>(median(std::vector<double>(
        backlog.begin() + static_cast<std::ptrdiff_t>(backlog.size() * 9 / 10),
        backlog.end())));

    std::vector<std::size_t> last_on_conn(conns_.size(), reqs_.size());
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      const std::size_t prev = last_on_conn[reqs_[i].conn];
      last_on_conn[reqs_[i].conn] = i;
      if (prev == reqs_.size()) continue;
      const Req& p = reqs_[prev];
      if (p.done >= reqs_[i].sent && p.done - reqs_[i].sent < 200000 &&
          p.done - p.due > 2000000) {
        ++st.lockstep;
      }
    }
    for (const Req& r : reqs_) {
      ++st.sent;
      if (r.ingest) ++st.ingest_sent;
      st.late_us.push_back(static_cast<double>(r.sent - r.due) * 1e-3);
      const double us = static_cast<double>(r.done - r.due) * 1e-3;
      const bool good = r.answered && r.ok;
      if (good) {
        ++st.ok;
      } else {
        ++st.failed;
      }
      const double lat = good ? us : std::numeric_limits<double>::infinity();
      (r.ingest ? st.ingest_us : st.predict_us).push_back(lat);
    }
    if (outstanding_ != 0) {
      throw std::runtime_error("daemon stopped answering in " + name);
    }
    return st;
  }

 private:
  void send(std::size_t c, std::size_t idx, const std::string& line) {
    Conn& conn = conns_[c];
    conn.inflight.push_back(idx);
    ++outstanding_;
    conn.wbuf.append(line);
    conn.wbuf.push_back('\n');
    reqs_[idx].sent = now_ns();
    reqs_[idx].conn = c;
    flush(c);
  }

  /// Writes what the socket takes; EPOLLOUT is armed only while bytes
  /// wait, so an idle writable socket never spins the loop.
  void flush(std::size_t c) {
    Conn& conn = conns_[c];
    while (conn.woff < conn.wbuf.size()) {
      const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                               conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error("send to daemon failed");
      }
      conn.woff += static_cast<std::size_t>(n);
    }
    const bool pending = conn.woff < conn.wbuf.size();
    if (!pending) {
      conn.wbuf.clear();
      conn.woff = 0;
    }
    if (pending != conn.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
      ev.data.u64 = c;
      ::epoll_ctl(ep_, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_out = pending;
    }
  }

  void poll(const std::vector<std::string>& lines) {
    epoll_event events[8];
    const int n = ::epoll_wait(ep_, events, 8, 0);
    for (int e = 0; e < n; ++e) {
      const std::size_t c = events[e].data.u64;
      Conn& conn = conns_[c];
      if ((events[e].events & EPOLLOUT) != 0) flush(c);
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        read_responses(conn, lines);
      }
    }
  }

  /// One recv per call, so a burst of replies from a backlogged daemon
  /// cannot keep the loop from sending what falls due meanwhile.
  void read_responses(Conn& conn, const std::vector<std::string>& lines) {
    char buf[65536];
    ssize_t n;
    do {
      n = ::recv(conn.fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw std::runtime_error("recv from daemon failed");
    }
    if (n == 0) throw std::runtime_error("daemon closed a connection");
    const std::uint64_t now = now_ns();
    conn.rbuf.append(buf, static_cast<std::size_t>(n));
    if (quickack_) {
      // Acknowledge at once (the kernel clears the flag, so re-arm it
      // after every read); see PhaseStats::lockstep.
      int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    }
    std::size_t begin = 0, pos;
    while ((pos = conn.rbuf.find('\n', begin)) != std::string::npos) {
      const std::string_view resp(conn.rbuf.data() + begin, pos - begin);
      begin = pos + 1;
      if (conn.inflight.empty()) {
        throw std::runtime_error("unsolicited response: " + std::string(resp));
      }
      Req& r = reqs_[conn.inflight.front()];
      conn.inflight.pop_front();
      --outstanding_;
      r.done = now;
      r.answered = true;
      r.ok = resp.find("\"ok\":true") != std::string_view::npos;
      // Kept in memory until the run ends: a file write here could stall
      // the generator behind the daemon's fsyncs, and one growing buffer
      // would stall it on every reallocation.
      std::string pair = lines[r.line];
      pair += '\t';
      pair += resp;
      pairs_.push_back(std::move(pair));
    }
    conn.rbuf.erase(0, begin);
  }

  std::deque<std::string>& pairs_;
  int daemon_pid_;
  bool quickack_ = true;

 public:
  /// Off: the kernel's default delayed acknowledgements, as most clients
  /// have them.
  void set_quickack(bool on) { quickack_ = on; }

 private:
  int ep_ = -1;
  std::vector<Conn> conns_;
  std::vector<Req> reqs_;
  std::size_t outstanding_ = 0;
};

/// "name:rate:seconds" phases; a ladder is "ladder:r0:ratio:steps:seconds".
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  return out;
}

}  // namespace

int cmd_load(const Flags& flags) {
  const int port = static_cast<int>(flags.u64("port", 0));
  const std::uint64_t seed = flags.u64("seed", 1);
  const double limit_us = flags.num("limit-us", 5000);
  const double max_late_us = flags.num("max-late-us", 1000);
  const int admin_port = static_cast<int>(flags.u64("admin-port", 0));
  const std::vector<std::string> stream = read_lines(flags.get("stream"));
  const std::vector<std::string> warm =
      flags.has("warm") ? read_lines(flags.get("warm"))
                        : std::vector<std::string>{};
  const std::vector<std::string> ingest =
      flags.has("ingest") ? read_lines(flags.get("ingest"))
                          : std::vector<std::string>{};
  std::deque<std::string> pairs;

  Generator gen(port, static_cast<int>(flags.u64("daemon-pid", 0)), pairs);
  std::string phases = "[";
  std::string statsz;
  double goodput = 0.0;
  bool valid = true;
  std::size_t sent = 0, ok = 0, failed = 0;
  std::size_t cursor = 0;
  std::uint64_t phase_seed = seed * 1000003;
  std::vector<double> ingest_acks;  // over the fixed-rate phases
  std::size_t voided = 0;
  const auto record = [&](const PhaseStats& st, bool timed) {
    if (timed && st.name.rfind("step", 0) != 0) {
      ingest_acks.insert(ingest_acks.end(), st.ingest_us.begin(),
                         st.ingest_us.end());
    }
    if (phases.size() > 1) phases += ',';
    phases += st.json();
    sent += st.sent;
    ok += st.ok;
    failed += st.failed;
  };
  // A timed phase whose generator fell behind (windowed lateness p99 over
  // the limit) is voided and measured again on the lines that follow (the
  // same lines would now hit the daemon's cache), up to twice; if the
  // third attempt is late too, the whole load is marked invalid and
  // run.py fails the run. Never merely slow.
  const auto measure = [&](const std::string& name,
                           const std::vector<std::string>& lines,
                           std::size_t* cur, double rate, double secs) {
    for (int attempt = 0;; ++attempt) {
      PhaseStats st = gen.run(name, lines, cur, rate, secs, ++phase_seed);
      if (st.late_p99() <= max_late_us || attempt == 2) {
        if (st.late_p99() > max_late_us) valid = false;
        record(st, true);
        return st;
      }
      st.name += "-void";
      record(st, false);
      ++voided;
    }
  };

  for (const std::string& spec : split(flags.get("plan"), ',')) {
    const auto f = split(spec, ':');
    const std::string& kind = f.at(0);
    if (kind == "warm" || kind == "prime") {
      // Untimed: the hot set's warm-up pass, or a priming burst of
      // stream lines that lets lazy set-up and idle cores settle.
      const bool is_warm = kind == "warm";
      std::size_t wc = 0;
      const double rate = std::stod(f.at(1));
      const double secs =
          is_warm ? static_cast<double>(warm.size()) / rate + 0.05
                  : std::stod(f.at(2));
      record(gen.run(kind, is_warm ? warm : stream, is_warm ? &wc : &cursor,
                     rate, secs, ++phase_seed, is_warm),
             false);
    } else if (kind == "ingest") {
      std::size_t ic = 0;
      measure("ingest", ingest, &ic, std::stod(f.at(1)), std::stod(f.at(2)));
    } else if (kind == "ladder") {
      const double r0 = std::stod(f.at(1));
      const double ratio = std::stod(f.at(2));
      const int steps = std::stoi(f.at(3));
      const double secs = std::stod(f.at(4));
      // Binary search for the highest step that meets the limit without
      // a growing backlog; the lowest step is assumed to pass.
      int lo = 0, hi = steps;  // lo passes (assumed), hi fails (sentinel)
      while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        const PhaseStats st =
            measure("step" + std::to_string(mid), stream, &cursor,
                    r0 * std::pow(ratio, mid), secs);
        const bool pass = st.failed == 0 && st.p(0.99) <= limit_us &&
                          !st.backlog_grows(limit_us);
        (pass ? lo : hi) = mid;
      }
      goodput = r0 * std::pow(ratio, lo);
    } else {
      const double rate = std::stod(f.at(1));
      const double secs = std::stod(f.at(2));
      std::thread scraper;
      if (admin_port > 0 && kind == "hi") {
        // One /statsz scrape from a helper thread mid-phase, so the
        // daemon's window and queue figures are taken under load.
        scraper = std::thread([&, secs] {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(secs / 2));
          statsz = http_get(admin_port, "/statsz");
        });
      }
      // "delack" is a low-rate phase from a client with delayed ACKs.
      gen.set_quickack(kind != "delack");
      measure(kind, stream, &cursor, rate, secs);
      gen.set_quickack(true);
      if (scraper.joinable()) scraper.join();
    }
  }
  phases += "]";
  write_lines(flags.get("pairs"), {pairs.begin(), pairs.end()});

  JsonObject out;
  out.raw("phases", phases)
      .num("goodput_rps", goodput)
      .num("ingest_ack_p50_us", windowed(ingest_acks, 0.5))
      .num("ingest_ack_p90_us", windowed(ingest_acks, 0.9))
      .num("ingest_ack_p99_us", windowed(ingest_acks, 0.99))
      .integer("ingest_acks", ingest_acks.size())
      .integer("sent", sent)
      .integer("ok", ok)
      .integer("failed", failed)
      .integer("voided_phases", voided)
      .raw("valid", valid ? "true" : "false");
  // The scrape is embedded as JSON when it is one object on one line.
  if (statsz.rfind('{', 0) == 0 && statsz.find('\n') == std::string::npos) {
    out.raw("statsz", statsz);
  }
  std::cout << out.dump() << '\n';
  return 0;
}

}  // namespace perfbench
