#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <stdexcept>

#include "harness/bench.hpp"
#include "src/apps/registry.hpp"
#include "src/common/csv.hpp"
#include "src/common/rng.hpp"
#include "src/platform/history.hpp"
#include "src/platform/machine.hpp"
#include "src/platform/simulator.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Scale pool of predict lines: the fitted targets plus two beyond them.
const std::vector<std::size_t>& request_scale_pool() {
  static const std::vector<std::size_t> pool = {32, 64, 128, 256, 512, 1024};
  return pool;
}

std::string render_params(const std::vector<double>& params) {
  std::string out = "[";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt(params[i]);
  }
  return out + "]";
}

/// 1, 2 or 4 distinct scales from the pool, ascending.
std::vector<std::size_t> draw_scales(StreamRng& rng) {
  static const std::size_t kCounts[] = {1, 2, 4};
  const std::size_t count = kCounts[rng.below(3)];
  std::vector<std::size_t> pool = request_scale_pool();
  std::vector<std::size_t> picked;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = rng.below(pool.size());
    picked.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

std::string predict_line(std::uint64_t id, const std::string& tenant,
                         const std::vector<double>& params,
                         const std::vector<std::size_t>& scales) {
  std::string line = "{\"id\":" + std::to_string(id);
  if (tenant != "default") line += ",\"model\":" + quote(tenant);
  line += ",\"params\":" + render_params(params);
  line += ",\"scales\":[";
  for (std::size_t i = 0; i < scales.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(scales[i]);
  }
  return line + "]}";
}

/// Draws parameter vectors of one application, never the same one twice
/// in a stream.
class UniqueParams {
 public:
  UniqueParams(const std::string& app, std::uint64_t seed)
      : app_(hpcp::make_application(app)), rng_(seed) {}
  std::vector<double> next() {
    for (;;) {
      auto params = app_->parameter_space().sample_random(1, rng_).front();
      if (seen_.insert(params).second) return params;
    }
  }
  [[nodiscard]] const hpcp::Application& app() const { return *app_; }

 private:
  std::unique_ptr<hpcp::Application> app_;
  hpcp::Rng rng_;
  std::set<std::vector<double>> seen_;
};

/// Ingest lines: one measured configuration at every small scale, as a
/// site would report a small-scale sweep, cycling over `tenants`.
class IngestSource {
 public:
  IngestSource(const std::vector<TenantSpec>& tenants, std::uint64_t seed)
      : tenants_(tenants), sim_(hpcp::reference_machine(), seed) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      params_.emplace_back(tenants[t].app, mix_seed(seed, 1000 + t));
    }
  }
  std::string next(std::uint64_t id) {
    if (pending_.empty()) refill();
    std::string line = pending_.front();
    pending_.erase(pending_.begin());
    return "{\"cmd\":\"ingest\",\"id\":" + std::to_string(id) + line;
  }

 private:
  void refill() {
    const std::size_t t = turn_++ % tenants_.size();
    const auto params = params_[t].next();
    for (const std::size_t p : small_scales()) {
      const std::uint64_t run_id = 1000000 + run_id_++;
      const double runtime =
          sim_.measure(params_[t].app(), params, p, run_id);
      std::string line;
      if (tenants_[t].tenant != "default") {
        line += ",\"model\":" + quote(tenants_[t].tenant);
      }
      line += ",\"params\":" + render_params(params);
      line += ",\"nprocs\":" + std::to_string(p);
      line += ",\"runtime\":" + fmt(runtime);
      line += ",\"run_id\":" + std::to_string(run_id) + "}";
      pending_.push_back(line);
    }
  }

  std::vector<TenantSpec> tenants_;
  hpcp::PlatformSimulator sim_;
  std::vector<UniqueParams> params_;
  std::vector<std::string> pending_;
  std::size_t turn_ = 0;
  std::uint64_t run_id_ = 0;
};

struct Streams {
  std::vector<std::string> setup;  ///< one predict per initially resident tenant
  std::vector<std::string> main;
  std::vector<std::string> warm;
  std::vector<std::string> ingest;
};

Streams make_streams(const WorkloadSpec& w, std::uint64_t seed,
                     std::size_t lines, std::size_t ingest_lines) {
  Streams s;
  StreamRng rng(mix_seed(seed, 1));
  std::vector<UniqueParams> params;
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    params.emplace_back(w.tenants[t].app, mix_seed(seed, 100 + t));
  }
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    s.setup.push_back(predict_line(3000000000 + t, w.tenants[t].tenant,
                                   params[t].next(), draw_scales(rng)));
  }

  if (w.stream == "zipf") {
    // A fixed key set; every key is sent once in the untimed warm-up pass.
    std::vector<std::pair<std::vector<double>, std::vector<std::size_t>>> keys;
    for (std::size_t k = 0; k < w.zipf_keys; ++k) {
      keys.emplace_back(params[0].next(), draw_scales(rng));
      s.warm.push_back(predict_line(1000000000 + k, w.tenants[0].tenant,
                                    keys.back().first, keys.back().second));
    }
    const Zipf key_pick(keys.size(), 1.1);
    for (std::size_t i = 0; i < lines; ++i) {
      const auto& key = keys[key_pick.draw(rng)];
      s.main.push_back(
          predict_line(i, w.tenants[0].tenant, key.first, key.second));
    }
  } else {
    // Each line's tenant drawn uniformly (train-fit serves two).
    for (std::size_t i = 0; i < lines; ++i) {
      const std::size_t t = rng.below(w.tenants.size());
      s.main.push_back(predict_line(i, w.tenants[t].tenant, params[t].next(),
                                    draw_scales(rng)));
    }
  }

  IngestSource ingest(w.tenants, mix_seed(seed, 3));
  for (std::size_t i = 0; i < ingest_lines; ++i) {
    s.ingest.push_back(ingest.next(2000000000 + i));
  }
  return s;
}

}  // namespace

int cmd_prepare(const Flags& flags) {
  const WorkloadSpec w = workload_spec(flags.get("workload"));
  const std::uint64_t seed = flags.u64("seed", 1);
  const fs::path dir = flags.get("dir");
  fs::create_directories(dir);

  const Streams streams =
      make_streams(w, seed, flags.u64("lines", 1000),
                   flags.u64("ingest-lines", 0));
  write_lines(dir / "setup.txt", streams.setup);
  write_lines(dir / "stream.txt", streams.main);
  write_lines(dir / "warm.txt", streams.warm);
  write_lines(dir / "ingest.txt", streams.ingest);

  // Site histories: one CSV per tenant, from the fixed history seed.
  fs::create_directories(dir / "hist");
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    const TenantSpec& spec = w.tenants[t];
    const std::uint64_t hseed = mix_seed(kHistorySeed, 10 + t);
    const auto app = hpcp::make_application(spec.app);
    const hpcp::PlatformSimulator sim(hpcp::reference_machine(),
                                      hseed ^ 0x9e3779b9);
    hpcp::Rng rng(hseed);
    const auto configs = app->parameter_space().sample_lhs(spec.configs, rng);
    const hpcp::HistoryStore history =
        hpcp::generate_history(sim, *app, configs, small_scales(), 1);
    hpcp::csv_write_file((dir / "hist" / (spec.tenant + ".csv")).string(),
                         history.to_csv());
  }

  std::cout << JsonObject()
                   .str("workload", w.name)
                   .integer("seed", seed)
                   .integer("lines", streams.main.size())
                   .raw("host", host_fingerprint_json())
                   .dump()
            << '\n';
  return 0;
}

}  // namespace perfbench
