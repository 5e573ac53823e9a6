#include "src/obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace hpcp::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

namespace {

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

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Registry key: `name` or `name{k="v",k2="v2"}` with labels in the order
/// given (instrument sites use one fixed order per metric).
std::string render_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) key += ',';
      key += labels[i].first;
      key += "=\"";
      key += labels[i].second;
      key += '"';
    }
    key += '}';
  }
  return key;
}

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& ch : out) {
    if (ch == '.' || ch == '-') ch = '_';
  }
  return out;
}

/// Prometheus exposition-format label-value escaping: backslash, double
/// quote, and line feed are the three characters the format reserves.
void prometheus_label_value_into(std::string& out, const std::string& v) {
  for (const char ch : v) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += ch;
    }
  }
}

std::string prometheus_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    prometheus_label_value_into(out, labels[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

void labels_json_into(std::string& out, const Labels& labels) {
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    json_escape_into(out, labels[i].first);
    out += "\": \"";
    json_escape_into(out, labels[i].second);
    out += '"';
  }
  out += '}';
}

}  // namespace

void set_metrics_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("histogram needs bounds");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument("histogram bounds must strictly increase");
    }
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const noexcept {
  if (i > bounds_.size()) return 0;
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::span<const double> default_time_bounds() noexcept {
  // ~3 buckets per decade over 1 µs .. 100 s.
  static const std::array<double, 25> bounds{
      1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
      1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,
      1.0,  2.0,  5.0,  10.0, 20.0, 50.0, 100.0};
  return bounds;
}

Counter& MetricRegistry::counter(std::string_view name, const Labels& labels) {
  const std::string key = render_key(name, labels);
  const std::lock_guard lock(mutex_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_
             .emplace(key, Entry<Counter>{std::string(name), labels,
                                          std::make_unique<Counter>()})
             .first;
  }
  return *it->second.metric;
}

Gauge& MetricRegistry::gauge(std::string_view name, const Labels& labels) {
  const std::string key = render_key(name, labels);
  const std::lock_guard lock(mutex_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(key, Entry<Gauge>{std::string(name), labels,
                                        std::make_unique<Gauge>()})
             .first;
  }
  return *it->second.metric;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::span<const double> bounds,
                                     const Labels& labels) {
  const std::string key = render_key(name, labels);
  const std::lock_guard lock(mutex_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(key,
                      Entry<Histogram>{
                          std::string(name), labels,
                          std::make_unique<Histogram>(std::vector<double>(
                              bounds.begin(), bounds.end()))})
             .first;
  }
  return *it->second.metric;
}

void MetricRegistry::reset_values() {
  const std::lock_guard lock(mutex_);
  for (auto& [key, e] : counters_) e.metric->reset();
  for (auto& [key, e] : gauges_) e.metric->reset();
  for (auto& [key, e] : histograms_) e.metric->reset();
}

std::string MetricRegistry::to_prometheus() const {
  const std::lock_guard lock(mutex_);
  std::string out;
  for (const auto& [key, e] : counters_) {
    const std::string pname = prometheus_name(e.name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + prometheus_labels(e.labels) + " " +
           std::to_string(e.metric->value()) + "\n";
  }
  for (const auto& [key, e] : gauges_) {
    const std::string pname = prometheus_name(e.name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + prometheus_labels(e.labels) + " " +
           format_number(e.metric->value()) + "\n";
  }
  for (const auto& [key, e] : histograms_) {
    const std::string pname = prometheus_name(e.name);
    out += "# TYPE " + pname + " histogram\n";
    const auto bounds = e.metric->bounds();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += e.metric->bucket_count(i);
      Labels with_le = e.labels;
      with_le.emplace_back("le", format_number(bounds[i]));
      out += pname + "_bucket" + prometheus_labels(with_le) + " " +
             std::to_string(cumulative) + "\n";
    }
    Labels with_le = e.labels;
    with_le.emplace_back("le", "+Inf");
    out += pname + "_bucket" + prometheus_labels(with_le) + " " +
           std::to_string(e.metric->count()) + "\n";
    out += pname + "_sum" + prometheus_labels(e.labels) + " " +
           format_number(e.metric->sum()) + "\n";
    out += pname + "_count" + prometheus_labels(e.labels) + " " +
           std::to_string(e.metric->count()) + "\n";
  }
  return out;
}

std::string MetricRegistry::to_json() const {
  const std::lock_guard lock(mutex_);
  std::string out = "{\n\"schema\": \"hpcp-metrics/1\",\n\"counters\": [";
  bool first = true;
  for (const auto& [key, e] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"";
    json_escape_into(out, e.name);
    out += "\", \"labels\": ";
    labels_json_into(out, e.labels);
    out += ", \"value\": " + std::to_string(e.metric->value()) + "}";
  }
  out += "\n],\n\"gauges\": [";
  first = true;
  for (const auto& [key, e] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"";
    json_escape_into(out, e.name);
    out += "\", \"labels\": ";
    labels_json_into(out, e.labels);
    out += ", \"value\": " + format_number(e.metric->value()) + "}";
  }
  out += "\n],\n\"histograms\": [";
  first = true;
  for (const auto& [key, e] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"";
    json_escape_into(out, e.name);
    out += "\", \"labels\": ";
    labels_json_into(out, e.labels);
    out += ", \"sum\": " + format_number(e.metric->sum());
    out += ", \"count\": " + std::to_string(e.metric->count());
    out += ", \"buckets\": [";
    const auto bounds = e.metric->bounds();
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      if (i < bounds.size()) {
        out += format_number(bounds[i]);
      } else {
        out += "\"+Inf\"";
      }
      out += ", \"count\": " + std::to_string(e.metric->bucket_count(i)) + "}";
    }
    out += "]}";
  }
  out += "\n]\n}\n";
  return out;
}

bool MetricRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

bool MetricRegistry::write_prometheus(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_prometheus();
  return static_cast<bool>(out);
}

MetricRegistry& global_metrics() {
  // Deliberately immortal, like Tracer::instance(): pool workers and other
  // threads may still count while static destructors run at exit.
  static MetricRegistry* const registry = new MetricRegistry;
  return *registry;
}

void count(std::string_view name, std::uint64_t delta, const Labels& labels) {
  if (!metrics_enabled()) return;
  global_metrics().counter(name, labels).add(delta);
}

void gauge_set(std::string_view name, double v, const Labels& labels) {
  if (!metrics_enabled()) return;
  global_metrics().gauge(name, labels).set(v);
}

void observe(std::string_view name, double v, std::span<const double> bounds,
             const Labels& labels) {
  if (!metrics_enabled()) return;
  global_metrics().histogram(name, bounds, labels).observe(v);
}

}  // namespace hpcp::obs
