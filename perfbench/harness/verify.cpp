// Byte-for-byte check of every `ok` predict response the daemons sent:
// each is recomputed by Server::handle_line on a fresh in-process server
// whose registry holds exactly the (tenant, version) archive the response
// names. The daemons of one run answer the same request lines, so a
// (request, response) pair already checked in an earlier pairs file is
// not recomputed (pairs are remembered by a 64-bit hash: two different
// pairs would have to collide for one to go unchecked); a different
// response to the same request is checked on its own.

#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "harness/bench.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Reference servers checking one group in parallel.
constexpr std::size_t kThreads = 4;

struct Pair {
  std::string request;
  std::string response;
};

/// The integer after `"model_version":` in a response line.
std::uint64_t response_version(const std::string& resp) {
  const std::string key = "\"model_version\":";
  const auto pos = resp.find(key);
  if (pos == std::string::npos) return 0;
  return std::stoull(resp.substr(pos + key.size()));
}

/// A registry root holding only `tenant` at `version` (hard link to the
/// served archive, or a copy where links are unavailable).
std::string reference_root(const fs::path& registry, const fs::path& ref_dir,
                           const std::string& tenant, std::uint64_t version) {
  const fs::path root =
      ref_dir / (tenant + "-v" + std::to_string(version));
  const fs::path src = registry / tenant / (std::to_string(version) + ".hpcp");
  const fs::path dst = root / tenant / src.filename();
  if (!fs::exists(dst)) {
    fs::create_directories(dst.parent_path());
    std::error_code ec;
    fs::create_hard_link(src, dst, ec);
    if (ec) fs::copy_file(src, dst);
  }
  return root.string();
}

/// Recomputes every pair of `groups`; returns the mismatch count and
/// keeps the first mismatch in `first_mismatch`.
std::size_t check_groups(
    const fs::path& registry, const fs::path& ref_dir,
    const std::map<std::pair<std::string, std::uint64_t>, std::vector<Pair>>& groups,
    std::string* first_mismatch) {
  std::size_t mismatches = 0;
  for (const auto& [key, pairs] : groups) {
    const std::string root =
        reference_root(registry, ref_dir, key.first, key.second);
    std::vector<std::size_t> bad(kThreads, 0);
    std::vector<std::string> example(kThreads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        hpcp::serve::ServeOptions opts;
        opts.threads = 1;
        hpcp::serve::Server server(opts);
        if (!server.attach_registry(root)) {
          bad[t] = pairs.size();
          example[t] = "cannot open reference registry " + root;
          return;
        }
        for (std::size_t i = t; i < pairs.size(); i += kThreads) {
          const std::string expect = server.handle_line(pairs[i].request);
          if (expect != pairs[i].response) {
            if (bad[t]++ == 0) {
              example[t] = "request " + pairs[i].request + "\n  daemon    " +
                           pairs[i].response + "\n  reference " + expect;
            }
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      mismatches += bad[t];
      if (first_mismatch->empty()) *first_mismatch = example[t];
    }
  }
  return mismatches;
}

}  // namespace

int cmd_verify(const Flags& flags) {
  const fs::path registry = flags.get("registry");
  const fs::path ref_dir = flags.get("ref-dir");

  std::unordered_set<std::size_t> seen;  // pairs checked in earlier files
  const std::hash<std::string> hash;
  std::size_t checked = 0, skipped = 0, repeated = 0, mismatches = 0;
  std::set<std::pair<std::string, std::uint64_t>> versions;
  std::string first_mismatch;
  std::stringstream files(flags.get("pairs"));
  std::string file;
  while (std::getline(files, file, ',')) {
    // Group this file's new ok predict pairs by the archive version that
    // answered them.
    std::map<std::pair<std::string, std::uint64_t>, std::vector<Pair>> groups;
    std::unordered_set<std::size_t> in_file;
    for (const std::string& line : read_lines(file)) {
      const auto tab = line.find('\t');
      Pair p{line.substr(0, tab), line.substr(tab + 1)};
      hpcp::serve::Request req;
      hpcp::serve::ErrorInfo err;
      const bool parsed = hpcp::serve::parse_request(p.request, &req, &err);
      if (!parsed || req.cmd != hpcp::serve::Request::Cmd::kPredict ||
          p.response.find("\"ok\":true") == std::string::npos) {
        ++skipped;
        continue;
      }
      ++checked;
      const std::size_t h = hash(line);
      if (seen.count(h) != 0) {
        ++repeated;
        continue;
      }
      in_file.insert(h);
      const std::string tenant = req.tenant.empty() ? "default" : req.tenant;
      versions.insert({tenant, response_version(p.response)});
      groups[{tenant, response_version(p.response)}].push_back(std::move(p));
    }
    mismatches += check_groups(registry, ref_dir, groups, &first_mismatch);
    seen.merge(in_file);
  }
  if (!first_mismatch.empty()) {
    std::cerr << "perfbench verify: mismatch\n  " << first_mismatch << '\n';
  }
  std::cout << JsonObject()
                   .integer("checked", checked)
                   .integer("repeated", repeated)
                   .integer("skipped", skipped)
                   .integer("versions", versions.size())
                   .integer("mismatches", mismatches)
                   .dump()
            << '\n';
  return 0;  // mismatches are reported, and make run.py's result incorrect
}

}  // namespace perfbench
