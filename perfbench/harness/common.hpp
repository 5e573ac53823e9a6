#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file common.hpp (perfbench)
/// Small helpers shared by the perfbench subcommands: flag parsing, wall
/// clocks, order statistics, line files, a deterministic RNG for request
/// streams, and a flat JSON object writer for results.

namespace perfbench {

/// `--name value` flags after the subcommand. Every flag takes a value.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] double num(const std::string& name, double fallback) const;
  [[nodiscard]] std::uint64_t u64(const std::string& name,
                                  std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Monotonic clock in nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

/// Quantile q in [0,1] of `v` by the nearest-rank rule on a sorted copy;
/// 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);
void write_lines(const std::string& path, const std::vector<std::string>& lines);
void write_text(const std::string& path, const std::string& text);

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double vm_hwm_mb();

/// CPU time (ns) the threads of process `pid` have run so far, from
/// /proc/<pid>/task/*/schedstat (0 = this process). The kernel leaves out
/// time the hypervisor took from a virtual CPU, so on a shared host this
/// repeats better than wall time.
[[nodiscard]] std::uint64_t process_cpu_ns(int pid);

/// SplitMix64: the request-stream RNG. Its sequence is fixed by this
/// file, so the same seed yields byte-identical streams on every build.
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double unit();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);
  /// Exponential with the given mean.
  double exponential(double mean);

 private:
  std::uint64_t state_;
};

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t draw(StreamRng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Shortest round-trip decimal for a double.
[[nodiscard]] std::string fmt(double v);

/// Flat JSON object writer: values are numbers, strings, or raw JSON.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, std::uint64_t v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string dump() const;

 private:
  std::string body_;
};

/// JSON string literal with escapes.
[[nodiscard]] std::string quote(const std::string& s);

/// The host fingerprint recorded with every result: nproc, the active
/// forest SIMD kernel, compiler and build type.
[[nodiscard]] std::string host_fingerprint_json();

}  // namespace perfbench
