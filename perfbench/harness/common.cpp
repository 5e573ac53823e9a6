#include "harness/common.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "harness/bench.hpp"
#include "src/forest/forest_isa.hpp"

namespace perfbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string name = argv[i];
    if (name.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got " + name);
    }
    values_[name.substr(2)] = argv[i + 1];
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::invalid_argument("missing flag --" + name);
  }
  return it->second;
}

double Flags::num(const std::string& name, double fallback) const {
  return has(name) ? std::stod(get(name)) : fallback;
}

std::uint64_t Flags::u64(const std::string& name,
                         std::uint64_t fallback) const {
  return has(name) ? std::stoull(get(name)) : fallback;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& l : lines) {
    text += l;
    text += '\n';
  }
  write_text(path, text);
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::uint64_t process_cpu_ns(int pid) {
  namespace fs = std::filesystem;
  const std::string dir =
      pid == 0 ? "/proc/self/task" : "/proc/" + std::to_string(pid) + "/task";
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& task : fs::directory_iterator(dir, ec)) {
    std::ifstream in(task.path() / "schedstat");
    std::uint64_t ns = 0;
    if (in >> ns) total += ns;
  }
  return total;
}

std::uint64_t StreamRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double StreamRng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t StreamRng::below(std::size_t n) {
  return static_cast<std::size_t>(unit() * static_cast<double>(n));
}

double StreamRng::exponential(double mean) {
  return -mean * std::log1p(-unit());
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(StreamRng& rng) const {
  const double u = rng.unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::num(const std::string& key, double v) {
  return raw(key, fmt(v));
}

JsonObject& JsonObject::integer(const std::string& key, std::uint64_t v) {
  return raw(key, std::to_string(v));
}

JsonObject& JsonObject::str(const std::string& key, const std::string& v) {
  return raw(key, quote(v));
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ',';
  body_ += quote(key);
  body_ += ':';
  body_ += json;
  return *this;
}

std::string JsonObject::dump() const { return "{" + body_ + "}"; }

std::string host_fingerprint_json() {
  return JsonObject()
      .integer("nproc", std::thread::hardware_concurrency())
      .str("forest_isa", hpcp::forest_isa_name(hpcp::resolve_forest_isa()))
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .dump();
}

}  // namespace perfbench
