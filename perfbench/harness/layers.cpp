// The traced run: the workload's own generated inputs replayed in process
// through each layer's public function. Every call is wrapped in a
// bench-side span (name, start, end, parent, request id); spans stay in
// memory and are written out at the end, with per-name self times.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <span>

#include "harness/bench.hpp"
#include "src/ingest/pipeline.hpp"
#include "src/ingest/run_log.hpp"
#include "src/registry/archive.hpp"
#include "src/registry/registry.hpp"
#include "src/registry/residency.hpp"
#include "src/serve/prediction_cache.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hpcp::serve::Request;

constexpr std::uint32_t kNoRequest = std::numeric_limits<std::uint32_t>::max();
/// Predict lines in the decomposed replay, and ingest lines appended.
constexpr std::size_t kReplay = 2000;
constexpr std::size_t kAppends = 400;
/// The registry replay: a store of 16 tenants under an LRU of four, and
/// Zipf(2) tenant popularity, so about one acquire in ten misses, loads
/// an archive and evicts.
constexpr std::size_t kStoreTenants = 16;
constexpr std::size_t kResidentCap = 4;
constexpr double kTenantZipf = 2.0;
constexpr std::size_t kAcquires = 1000;

struct SpanRec {
  const char* name = "";
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int32_t parent = -1;
  std::uint32_t request = kNoRequest;
  double rows = 0;  ///< work items the span covered (windows)
};

/// In-memory span recorder. Disabled, it records nothing, so the same
/// replay code runs with tracing off for the overhead comparison.
class SpanLog {
 public:
  bool enabled = true;
  std::vector<SpanRec> spans;

  std::int32_t open(const char* name, std::uint32_t request) {
    if (!enabled) return -1;
    SpanRec s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    spans.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans.size() - 1);
    stack_.push_back(idx);
    spans.back().start = now_ns();
    return idx;
  }
  void close(std::int32_t idx) {
    if (idx < 0) return;
    spans[static_cast<std::size_t>(idx)].end = now_ns();
    stack_.pop_back();
  }

 private:
  std::vector<std::int32_t> stack_;
};

class Span {
 public:
  Span(SpanLog& log, const char* name, std::uint32_t request = kNoRequest)
      : log_(log), idx_(log.open(name, request)) {}
  ~Span() { log_.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::int32_t index() const { return idx_; }

 private:
  SpanLog& log_;
  std::int32_t idx_;
};

/// Durations (microseconds) of every span called `name`.
std::vector<double> durations_us(const SpanLog& log, const std::string& name) {
  std::vector<double> out;
  for (const SpanRec& s : log.spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.end - s.start) * 1e-3);
  }
  return out;
}

double median_us(const SpanLog& log, const std::string& name) {
  return median(durations_us(log, name));
}

/// Self time per span: its duration minus the part its children cover
/// (children never overlap: the replay is single-threaded).
std::vector<double> self_times_us(const SpanLog& log) {
  std::vector<double> self(log.spans.size());
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    self[i] = static_cast<double>(log.spans[i].end - log.spans[i].start) * 1e-3;
  }
  for (const SpanRec& s : log.spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end - s.start) * 1e-3;
    }
  }
  return self;
}

/// The decomposed request path: parse -> tenant acquire -> cache probe ->
/// level-1 curve -> cluster assign -> level-2 at the requested scales ->
/// cache insert -> render, one span per layer call under one request span.
struct PathState {
  std::unique_ptr<hpcp::registry::ModelPool> pool;
  hpcp::serve::PredictionCache cache{4096, 8};
  std::size_t requests = 0, hits = 0;
  std::vector<std::vector<double>> curves;  ///< level-1 curves of misses
  std::vector<std::string> curve_tenants;   ///< whose model made each curve
};

void request_path(SpanLog& log, PathState& st, const std::string& line,
                  std::uint32_t rid, bool keep_curves) {
  const Span root(log, "request", rid);
  Request req;
  hpcp::serve::ErrorInfo err;
  {
    const Span s(log, "serve.parse", rid);
    if (!hpcp::serve::parse_request(line, &req, &err)) {
      throw std::runtime_error("replay line does not parse: " + line);
    }
  }
  const std::string tenant = req.tenant.empty() ? "default" : req.tenant;
  std::shared_ptr<const hpcp::registry::ResidentModel> resident;
  {
    const Span s(log, "registry.acquire", rid);
    auto acquired = st.pool->acquire(tenant);
    if (!acquired) throw std::runtime_error(acquired.error().to_string());
    resident = acquired.value();
  }
  const std::vector<std::size_t> scales =
      req.scales.empty() ? resident->default_scales : req.scales;
  std::vector<double> predictions(scales.size());
  bool all_hit = true;
  {
    const Span s(log, "serve.cache_probe", rid);
    for (std::size_t k = 0; all_hit && k < scales.size(); ++k) {
      const auto hit =
          st.cache.lookup(tenant, resident->version, req.params, scales[k]);
      if (hit.has_value()) {
        predictions[k] = *hit;
      } else {
        all_hit = false;
      }
    }
  }
  ++st.requests;
  if (all_hit) {
    ++st.hits;
  } else {
    const hpcp::TwoLevelModel& model = resident->model;
    std::vector<double> curve;
    {
      const Span s(log, "interp.curve", rid);
      curve = model.interpolation().predict_curve(req.params);
    }
    {
      const Span s(log, "cluster.assign", rid);
      volatile std::size_t cluster = model.extrapolation().assign_cluster(curve);
      (void)cluster;
    }
    {
      const Span s(log, "extrap.at_scales", rid);
      predictions = model.predict_curve_at_scales(curve, scales);
    }
    {
      const Span s(log, "serve.cache_insert", rid);
      for (std::size_t k = 0; k < scales.size(); ++k) {
        st.cache.insert(tenant, resident->version, req.params, scales[k],
                        predictions[k]);
      }
    }
    if (keep_curves) {
      // The tenant, not a pin: a held model would never be evicted.
      st.curves.push_back(std::move(curve));
      st.curve_tenants.push_back(tenant);
    }
  }
  const Span s(log, "serve.render", rid);
  volatile std::size_t bytes =
      hpcp::serve::render_predictions(req.id_json, resident->version, scales,
                                      predictions)
          .size();
  (void)bytes;
}

std::unique_ptr<hpcp::registry::ModelPool> open_pool(const std::string& root) {
  auto reg = hpcp::registry::Registry::open(root);
  if (!reg) throw std::runtime_error(reg.error().to_string());
  hpcp::registry::PoolOptions opts;
  opts.max_resident_models = kResidentCap;
  return std::make_unique<hpcp::registry::ModelPool>(std::move(reg.value()),
                                                     opts);
}

/// One decomposed replay pass over `lines` from fresh cache and pool
/// state; returns its wall time in seconds.
double path_pass(SpanLog& log, std::unique_ptr<PathState>& state,
                 const std::string& root, const std::vector<std::string>& warm,
                 const std::vector<std::string>& lines, bool keep_curves) {
  state = std::make_unique<PathState>();
  PathState& st = *state;
  st.pool = open_pool(root);
  const bool was = log.enabled;
  log.enabled = false;  // the warm-up pass is untimed
  for (const auto& line : warm) request_path(log, st, line, kNoRequest, false);
  if (!lines.empty()) {
    // The first model load stays out of the timed pass.
    Request req;
    hpcp::serve::ErrorInfo err;
    if (hpcp::serve::parse_request(lines.front(), &req, &err)) {
      (void)st.pool->acquire(req.tenant.empty() ? "default" : req.tenant);
    }
  }
  log.enabled = was;
  st.requests = st.hits = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    request_path(log, st, lines[i], static_cast<std::uint32_t>(i), keep_curves);
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// A store of kStoreTenants tenants, each holding the workload's first
/// model (by tenant name) as version 1; returns its root.
std::string tenant_store(const fs::path& dir, const std::string& root) {
  std::vector<fs::path> tenants;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_directory()) tenants.push_back(entry.path());
  }
  std::sort(tenants.begin(), tenants.end());
  if (tenants.empty()) throw std::runtime_error("empty registry " + root);
  auto archive = hpcp::registry::ModelArchive::open((tenants[0] / "1.hpcp").string());
  if (!archive) throw std::runtime_error(archive.error().to_string());
  auto model = archive.value().load_model();
  if (!model) throw std::runtime_error(model.error().to_string());
  const fs::path store = dir / "tenants16";
  for (std::size_t k = 0; k < kStoreTenants; ++k) {
    const std::string tenant = "t" + std::to_string(k);
    fs::create_directories(store / tenant);
    auto written = hpcp::registry::write_model_archive(
        (store / tenant / "1.hpcp").string(), model.value(), {tenant, 1});
    if (!written) throw std::runtime_error(written.error().to_string());
  }
  return store.string();
}

std::unique_ptr<hpcp::serve::Server> make_server(const std::string& root,
                                                 std::size_t threads) {
  hpcp::serve::ServeOptions opts;
  opts.threads = threads;
  auto server = std::make_unique<hpcp::serve::Server>(opts);
  if (!server->attach_registry(root)) {
    throw std::runtime_error("cannot attach registry " + root);
  }
  return server;
}

}  // namespace

int cmd_layers(const Flags& flags) {
  const fs::path dir = flags.get("dir");
  const std::string root = (dir / "registry").string();
  const std::size_t threads = flags.u64("threads", 2);
  const std::size_t window = std::max<std::uint64_t>(1, flags.u64("window", 8));
  const std::size_t lo_from = flags.u64("lo-from", 0);
  const std::size_t lo_lines = flags.u64("lo-lines", 1000);

  const std::vector<std::string> stream = read_lines((dir / "stream.txt").string());
  const std::vector<std::string> warm = read_lines((dir / "warm.txt").string());
  // Predict lines the daemon's lo phase sent, and the ones after them.
  std::vector<std::string> lo, rest;
  for (std::size_t i = lo_from; i < stream.size(); ++i) {
    (i < lo_from + lo_lines ? lo : rest).push_back(stream[i]);
  }
  std::vector<std::string> replay_lines(
      lo.begin(), lo.begin() + static_cast<std::ptrdiff_t>(std::min(kReplay, lo.size())));
  for (std::size_t i = 0; replay_lines.size() < kReplay && i < rest.size(); ++i) {
    replay_lines.push_back(rest[i]);
  }

  SpanLog log;
  std::unique_ptr<PathState> st;

  // Tracing overhead: the same decomposed pass with spans off and on,
  // alternated, medians compared.
  constexpr int kReps = 5;
  std::vector<double> off_s, on_s;
  for (int rep = 0; rep < kReps; ++rep) {
    log.enabled = false;
    off_s.push_back(path_pass(log, st, root, warm, replay_lines, false));
    log.enabled = true;
    log.spans.clear();
    on_s.push_back(path_pass(log, st, root, warm, replay_lines, rep == kReps - 1));
  }
  const double overhead_pct =
      100.0 * (median(on_s) - median(off_s)) / median(off_s);
  const double hit_ratio =
      static_cast<double>(st->hits) / static_cast<double>(std::max<std::size_t>(1, st->requests));

  // The registry replay: Zipf-popular tenants of a 16-tenant store
  // through ModelPool::acquire under an LRU of four. An acquire that
  // loaded (the pool's load counter moved) is a residency miss.
  std::vector<double> acquire_hit_us, acquire_load_ms;
  std::uint64_t pool_hits = 0, pool_loads = 0, evictions = 0;
  {
    const auto pool = open_pool(tenant_store(dir, root));
    const auto loads = [&] {
      std::uint64_t n = 0;
      for (const auto& t : pool->stats()) n += t.loads;
      return n;
    };
    StreamRng rng(mix_seed(flags.u64("seed", 1), 4));
    const Zipf pick(kStoreTenants, kTenantZipf);
    for (std::size_t i = 0; i < kAcquires; ++i) {
      const std::string tenant = "t" + std::to_string(pick.draw(rng));
      const std::uint64_t before = loads();
      const std::uint64_t t0 = now_ns();
      {
        const Span s(log, "registry.acquire", static_cast<std::uint32_t>(i));
        if (!pool->acquire(tenant)) throw std::runtime_error("acquire failed");
      }
      const double us = static_cast<double>(now_ns() - t0) * 1e-3;
      if (loads() > before) {
        acquire_load_ms.push_back(us * 1e-3);
      } else {
        acquire_hit_us.push_back(us);
      }
    }
    for (const auto& t : pool->stats()) {
      pool_hits += t.hits;
      pool_loads += t.loads;
    }
    evictions = pool->total_evictions();
  }

  // A workload that hits the cache (hot-zipf) reaches the model layers
  // only in its untimed warm-up; time them directly on its replay lines so
  // every workload reports them from its own inputs.
  if (st->curves.size() < 200) {
    for (std::size_t i = 0; i < replay_lines.size() && st->curves.size() < 1000; ++i) {
      Request req;
      hpcp::serve::ErrorInfo err;
      if (!hpcp::serve::parse_request(replay_lines[i], &req, &err)) continue;
      auto resident = st->pool->acquire(req.tenant.empty() ? "default" : req.tenant);
      if (!resident) throw std::runtime_error(resident.error().to_string());
      const hpcp::TwoLevelModel& model = resident.value()->model;
      const auto rid = static_cast<std::uint32_t>(i);
      std::vector<double> curve;
      {
        const Span s(log, "interp.curve", rid);
        curve = model.interpolation().predict_curve(req.params);
      }
      {
        const Span s(log, "cluster.assign", rid);
        volatile std::size_t cluster = model.extrapolation().assign_cluster(curve);
        (void)cluster;
      }
      st->curves.push_back(std::move(curve));
      st->curve_tenants.push_back(req.tenant.empty() ? "default" : req.tenant);
    }
  }

  // Level 2 with one and with four scales on the same level-1 curves.
  {
    static const std::vector<std::size_t> four = {32, 64, 128, 256};
    std::shared_ptr<const hpcp::registry::ResidentModel> resident;
    for (std::size_t i = 0; i < st->curves.size(); ++i) {
      if (!resident || resident->tenant != st->curve_tenants[i]) {
        auto acquired = st->pool->acquire(st->curve_tenants[i]);
        if (!acquired) throw std::runtime_error(acquired.error().to_string());
        resident = acquired.value();
      }
      const hpcp::TwoLevelModel& model = resident->model;
      const auto rid = static_cast<std::uint32_t>(i);
      const std::vector<std::size_t> one = {four[i % four.size()]};
      {
        const Span s(log, "extrap.scales1", rid);
        volatile double v = model.predict_curve_at_scales(st->curves[i], one)[0];
        (void)v;
      }
      const Span s(log, "extrap.scales4", rid);
      volatile double v = model.predict_curve_at_scales(st->curves[i], four)[0];
      (void)v;
    }
  }

  // One-row handle_line on the lo-phase lines (the daemon's lo phase sent
  // exactly these), after the warm-up lines.
  {
    const auto server = make_server(root, threads);
    for (const auto& line : warm) (void)server->handle_line(line);
    for (std::size_t i = 0; i < lo.size(); ++i) {
      const Span s(log, "serve.handle_line", static_cast<std::uint32_t>(i));
      (void)server->handle_line(lo[i]);
    }
  }

  // handle_batch at the daemon's window size, and the batched level-1
  // call on the same windows.
  {
    const auto server = make_server(root, threads);
    for (const auto& line : warm) (void)server->handle_line(line);
    auto pool = open_pool(root);
    const std::size_t windows = std::min<std::size_t>(400, rest.size() / window);
    for (std::size_t w = 0; w < windows; ++w) {
      std::vector<hpcp::serve::Server::BatchLine> batch;
      std::map<std::string, std::vector<std::vector<double>>> by_tenant;
      for (std::size_t k = 0; k < window; ++k) {
        const std::string& line = rest[w * window + k];
        batch.push_back({line, false});
        Request req;
        hpcp::serve::ErrorInfo err;
        if (hpcp::serve::parse_request(line, &req, &err)) {
          by_tenant[req.tenant.empty() ? "default" : req.tenant].push_back(req.params);
        }
      }
      {
        const Span s(log, "serve.window", static_cast<std::uint32_t>(w));
        log.spans[static_cast<std::size_t>(s.index())].rows = static_cast<double>(window);
        (void)server->handle_batch(batch);
      }
      for (const auto& [tenant, rows] : by_tenant) {
        auto resident = pool->acquire(tenant);
        if (!resident) throw std::runtime_error(resident.error().to_string());
        const hpcp::TwoLevelModel& model = resident.value()->model;
        hpcp::Matrix configs(rows.size(), model.interpolation().num_features());
        for (std::size_t r = 0; r < rows.size(); ++r) configs.set_row(r, rows[r]);
        const Span s(log, "interp.curves", static_cast<std::uint32_t>(w));
        log.spans[static_cast<std::size_t>(s.index())].rows = static_cast<double>(rows.size());
        volatile std::size_t n = model.interpolation().predict_curves(configs).rows();
        (void)n;
      }
    }
  }

  // Archive open and model parse, per archive of the workload's registry.
  {
    for (const auto& tenant_dir : fs::directory_iterator(root)) {
      if (!tenant_dir.is_directory()) continue;
      const std::string path = (tenant_dir.path() / "1.hpcp").string();
      for (int rep = 0; rep < 5; ++rep) {
        auto archive = [&] {
          const Span s(log, "registry.archive_open");
          return hpcp::registry::ModelArchive::open(path);
        }();
        if (!archive) throw std::runtime_error(archive.error().to_string());
        if (rep >= 2) continue;
        const Span s(log, "registry.load_model");
        auto model = archive.value().load_model();
        if (!model) throw std::runtime_error(model.error().to_string());
      }
    }
  }

  // Ingest: fsync'd appends of the workload's ingest lines into a log of
  // the benchmark's own, then a cold and a warm-started candidate fit on
  // that log.
  {
    std::vector<std::string> ingest_lines = read_lines((dir / "ingest.txt").string());
    if (ingest_lines.size() > kAppends) ingest_lines.resize(kAppends);
    const fs::path log_root = dir / "ingest_logs";
    std::map<std::string, hpcp::ingest::RunLog> logs;
    std::string first_tenant;
    for (std::size_t i = 0; i < ingest_lines.size(); ++i) {
      Request req;
      hpcp::serve::ErrorInfo err;
      if (!hpcp::serve::parse_request(ingest_lines[i], &req, &err)) continue;
      const std::string tenant = req.tenant.empty() ? "default" : req.tenant;
      if (first_tenant.empty()) first_tenant = tenant;
      auto it = logs.find(tenant);
      if (it == logs.end()) {
        auto opened = hpcp::ingest::RunLog::open(log_root.string(), tenant);
        if (!opened) throw std::runtime_error(opened.error().to_string());
        hpcp::ingest::LogEntry config;
        config.kind = hpcp::ingest::LogEntry::Kind::kConfig;
        for (std::size_t d = 0; d < req.params.size(); ++d) {
          config.config.param_names.push_back("p" + std::to_string(d));
        }
        config.config.target_scales = target_scales();
        if (!opened.value().append(config)) throw std::runtime_error("append failed");
        it = logs.emplace(tenant, std::move(opened.value())).first;
      }
      hpcp::ingest::LogEntry entry;
      entry.kind = hpcp::ingest::LogEntry::Kind::kRun;
      entry.run = {req.params, req.nprocs, req.runtime, req.run_id};
      const Span s(log, "ingest.append", static_cast<std::uint32_t>(i));
      if (!it->second.append(entry)) throw std::runtime_error("append failed");
    }
    auto read = hpcp::ingest::RunLog::read_file(
        hpcp::ingest::RunLog::log_path(log_root.string(), first_tenant));
    if (!read) throw std::runtime_error(read.error().to_string());
    const auto& entries = read.value().entries;
    const hpcp::ingest::RetrainOptions opts;
    auto cold = [&] {
      const Span s(log, "ingest.fit_candidate_cold");
      return hpcp::ingest::fit_candidate(entries, SIZE_MAX, first_tenant, nullptr, opts);
    }();
    if (!cold) throw std::runtime_error(cold.error().to_string());
    {
      const Span s(log, "ingest.fit_candidate_warm");
      auto warm_fit = hpcp::ingest::fit_candidate(entries, SIZE_MAX, first_tenant,
                                                  &cold.value().model, opts);
      if (!warm_fit) throw std::runtime_error(warm_fit.error().to_string());
    }
    const Span s(log, "ingest.holdout_mape");
    volatile double mape = hpcp::ingest::holdout_mape(
        cold.value().model, cold.value().holdout_configs,
        cold.value().holdout_times, cold.value().holdout_scale);
    (void)mape;
  }

  // Per-name self-time summary and the raw spans.
  const std::vector<double> self = self_times_us(log);
  std::map<std::string, std::vector<double>> dur_by, self_by;
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    dur_by[log.spans[i].name].push_back(
        static_cast<double>(log.spans[i].end - log.spans[i].start) * 1e-3);
    self_by[log.spans[i].name].push_back(self[i]);
  }
  JsonObject summary;
  for (const auto& [name, d] : dur_by) {
    double total_self = 0;
    for (const double v : self_by[name]) total_self += v;
    summary.raw(name, JsonObject()
                          .integer("count", d.size())
                          .num("median_us", median(d))
                          .num("p95_us", quantile(d, 0.95))
                          .num("self_median_us", median(self_by[name]))
                          .num("self_total_ms", total_self * 1e-3)
                          .dump());
  }
  write_text((dir / "self_times.json").string(), summary.dump() + "\n");
  {
    std::string text;
    for (const SpanRec& s : log.spans) {
      text += JsonObject()
                  .str("name", s.name)
                  .integer("start_ns", s.start)
                  .integer("end_ns", s.end)
                  .raw("parent", std::to_string(s.parent))
                  .raw("request", s.request == kNoRequest ? "null" : std::to_string(s.request))
                  .dump();
      text += '\n';
    }
    write_text((dir / "spans.jsonl").string(), text);
  }

  std::vector<double> curves_per_row;
  for (const SpanRec& s : log.spans) {
    if (std::string("interp.curves") == s.name && s.rows > 0) {
      curves_per_row.push_back(static_cast<double>(s.end - s.start) * 1e-3 / s.rows);
    }
  }

  std::cout << JsonObject()
                   .integer("replayed", st->requests)
                   .integer("spans", log.spans.size())
                   .num("serve.parse_us", median_us(log, "serve.parse"))
                   .num("serve.render_us", median_us(log, "serve.render"))
                   .num("serve.cache_probe_us", median_us(log, "serve.cache_probe"))
                   .num("serve.cache_hit_ratio", hit_ratio)
                   .num("serve.handle_line_us", median_us(log, "serve.handle_line"))
                   .num("serve.window_us", median_us(log, "serve.window"))
                   .num("interp.curve_us", median_us(log, "interp.curve"))
                   .num("interp.curves_us_per_row", median(curves_per_row))
                   .num("cluster.assign_us", median_us(log, "cluster.assign"))
                   .num("extrap.scales1_us", median_us(log, "extrap.scales1"))
                   .num("extrap.scales4_us", median_us(log, "extrap.scales4"))
                   .num("registry.acquire_hit_us", median(acquire_hit_us))
                   .num("registry.acquire_load_ms", median(acquire_load_ms))
                   .num("registry.resident_hit_ratio",
                        static_cast<double>(pool_hits) /
                            static_cast<double>(std::max<std::uint64_t>(1, pool_hits + pool_loads)))
                   .num("registry.evictions", static_cast<double>(evictions))
                   .num("registry.archive_open_us", median_us(log, "registry.archive_open"))
                   .num("registry.load_model_ms", 1e-3 * median_us(log, "registry.load_model"))
                   .num("ingest.append_us", median_us(log, "ingest.append"))
                   .num("ingest.fit_candidate_cold_s",
                        1e-6 * median_us(log, "ingest.fit_candidate_cold"))
                   .num("ingest.fit_candidate_warm_s",
                        1e-6 * median_us(log, "ingest.fit_candidate_warm"))
                   .num("ingest.holdout_mape_ms", 1e-3 * median_us(log, "ingest.holdout_mape"))
                   .num("obs.trace_overhead_pct", overhead_pct)
                   .dump()
            << '\n';
  return 0;
}

}  // namespace perfbench
