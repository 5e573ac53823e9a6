#include "src/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace hpcp::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

std::string format_us(double us) {
  // Fixed notation with sub-microsecond precision; Chrome's importer does
  // not accept exponent notation for ts/dur.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

}  // namespace

void set_trace_enabled(bool on) noexcept {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t current_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void set_current_thread_name(std::string name) {
  Tracer::instance().name_thread(current_thread_id(), std::move(name));
}

Tracer::Tracer() : epoch_ns_(steady_now_ns()) {
  ring_.resize(capacity_);
  // The constructing thread is almost always main; label it so traces read
  // well even when no one registered names explicitly.
  thread_names_[current_thread_id()] = "main";
}

Tracer& Tracer::instance() {
  // Deliberately immortal: a thread-pool worker may still be naming itself
  // while static destructors run after main returns, so the tracer must
  // outlive every thread instead of being destroyed at exit.
  static Tracer* const tracer = new Tracer;
  return *tracer;
}

void Tracer::set_capacity(std::size_t capacity) {
  const std::lock_guard lock(mutex_);
  capacity_ = std::max<std::size_t>(1, capacity);
  ring_.assign(capacity_, TraceEvent{});
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void Tracer::clear() {
  const std::lock_guard lock(mutex_);
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void Tracer::record(TraceEvent event) {
  const std::lock_guard lock(mutex_);
  if (size_ == capacity_) ++dropped_;
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  size_ = std::min(size_ + 1, capacity_);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard lock(mutex_);
    out.reserve(size_);
    const std::size_t oldest = (next_ + capacity_ - size_) % capacity_;
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(ring_[(oldest + i) % capacity_]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.name < b.name;
                   });
  return out;
}

std::size_t Tracer::dropped() const {
  const std::lock_guard lock(mutex_);
  return dropped_;
}

double Tracer::now_us() const {
  return static_cast<double>(steady_now_ns() - epoch_ns_) * 1e-3;
}

void Tracer::name_thread(std::uint32_t tid, std::string name) {
  const std::lock_guard lock(mutex_);
  thread_names_[tid] = std::move(name);
}

std::string Tracer::to_chrome_json() const {
  const auto events = snapshot();
  std::map<std::uint32_t, std::string> names;
  std::size_t dropped;
  {
    const std::lock_guard lock(mutex_);
    names = thread_names_;
    dropped = dropped_;
  }

  std::string out;
  out.reserve(events.size() * 96 + 512);
  out += "{\n\"traceEvents\": [\n";
  out +=
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"hpcpredict\"}}";
  for (const auto& [tid, name] : names) {
    out += ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " + std::to_string(tid) + ", \"args\": {\"name\": \"";
    json_escape_into(out, name);
    out += "\"}}";
  }
  for (const auto& ev : events) {
    out += ",\n{\"name\": \"";
    json_escape_into(out, ev.name);
    out += "\", \"cat\": \"hpcp\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(ev.tid) + ", \"ts\": " + format_us(ev.ts_us) +
           ", \"dur\": " + format_us(ev.dur_us) + "}";
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n";
  out += "\"otherData\": {\"schema\": \"hpcp-trace/1\", \"dropped\": " +
         std::to_string(dropped) + "}\n}\n";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_chrome_json();
  return static_cast<bool>(out);
}

void Span::begin(const char* name, const std::string* detail) noexcept {
  try {
    name_ = name;
    if (detail != nullptr && !detail->empty()) {
      name_ += '.';
      name_ += *detail;
    }
    start_us_ = Tracer::instance().now_us();
  } catch (...) {
    start_us_ = -1.0;  // allocation failure: drop the span, never throw
  }
}

void Span::end() noexcept {
  try {
    auto& tracer = Tracer::instance();
    TraceEvent ev;
    ev.ts_us = start_us_;
    ev.dur_us = std::max(0.0, tracer.now_us() - start_us_);
    ev.tid = current_thread_id();
    ev.name = std::move(name_);
    tracer.record(std::move(ev));
  } catch (...) {
    // Dropping a span beats terminating the process from a destructor.
  }
}

}  // namespace hpcp::obs
