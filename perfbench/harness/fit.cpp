#include <cmath>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "harness/bench.hpp"
#include "src/apps/registry.hpp"
#include "src/common/csv.hpp"
#include "src/common/rng.hpp"
#include "src/core/problem.hpp"
#include "src/data/validation.hpp"
#include "src/platform/history.hpp"
#include "src/platform/machine.hpp"
#include "src/platform/simulator.hpp"
#include "src/registry/archive.hpp"

namespace perfbench {

namespace {

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  StreamRng rng(seed * 0x100000001b3ULL + salt);
  return rng.next();
}

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "cold-unique") {
    w.tenants = {{"default", "heat3d", 300}};
    w.stream = "unique";
  } else if (name == "hot-zipf") {
    w.tenants = {{"default", "heat3d", 300}};
    w.stream = "zipf";
    w.zipf_keys = 256;
  } else if (name == "train-fit") {
    w.tenants = {{"heat3d", "heat3d", 1200}, {"minimd", "minimd", 1200}};
    w.stream = "unique";
    w.fit_rounds = 3;  // a round takes about 2.7 s
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

const std::vector<std::size_t>& small_scales() {
  static const std::vector<std::size_t> s = {1, 2, 4, 8, 16};
  return s;
}

const std::vector<std::size_t>& target_scales() {
  static const std::vector<std::size_t> s = {32, 64, 128, 256};
  return s;
}

FitOutcome fit_pipeline(const std::string& csv_path,
                        const std::string& archive_path,
                        const std::string& tenant, std::uint64_t version) {
  FitOutcome out;
  const std::uint64_t t0 = now_ns();
  auto table = hpcp::csv_read_file_checked(csv_path);
  if (!table) throw std::runtime_error(table.error().to_string());
  auto load = hpcp::load_history_csv("history", table.value());
  if (!load) throw std::runtime_error(load.error().to_string());
  out.history_load_s = seconds_since(t0);

  const std::uint64_t t1 = now_ns();
  auto validated = hpcp::validate_history(load.value().store);
  if (!validated) throw std::runtime_error(validated.error().to_string());
  out.validate_s = seconds_since(t1);

  const hpcp::HistoryStore& history = validated.value().store;
  const hpcp::ExtrapolationProblem problem =
      hpcp::make_problem(history, history.scales(), target_scales());
  hpcp::Rng rng(42);
  auto report = out.model.fit_checked(problem, rng);
  if (!report) throw std::runtime_error(report.error().to_string());
  out.report = report.value();

  const std::uint64_t t3 = now_ns();
  auto written = hpcp::registry::write_model_archive(
      archive_path, out.model, {tenant, version});
  if (!written) throw std::runtime_error(written.error().to_string());
  out.archive_write_s = seconds_since(t3);
  out.total_s = seconds_since(t0);

  auto archive = hpcp::registry::ModelArchive::open(archive_path);
  if (!archive) throw std::runtime_error(archive.error().to_string());
  out.archive_bytes = archive.value().file_bytes();
  return out;
}

double heldout_mape_pct(const hpcp::TwoLevelModel& model,
                        const std::string& app_name, std::uint64_t seed) {
  const auto app = hpcp::make_application(app_name);
  const hpcp::PlatformSimulator sim(hpcp::reference_machine());
  hpcp::Rng rng(seed ^ 0x7e57c0f1u);
  const auto configs = app->parameter_space().sample_random(64, rng);
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& params : configs) {
    const auto predicted = model.predict(params);
    for (std::size_t t = 0; t < target_scales().size(); ++t) {
      const double truth = sim.true_time(*app, params, target_scales()[t]);
      sum += std::abs(predicted[t] - truth) / truth;
      ++n;
    }
  }
  return 100.0 * sum / static_cast<double>(n);
}

int cmd_fit(const Flags& flags) {
  namespace fs = std::filesystem;
  const WorkloadSpec w = workload_spec(flags.get("workload"));
  const fs::path dir = flags.get("dir");

  // The fit pipeline over every tenant's history CSV, repeated: fit_s is
  // the median round. This process holds nothing but the histories and
  // the models, so its VmHWM is the fit's peak memory.
  std::vector<double> round_total, round_cpu, interp_fit, cluster, support,
      archive_write, history_load, validate;
  std::vector<FitOutcome> last;
  double archive_bytes = 0.0;
  for (std::size_t r = 0; r < w.fit_rounds; ++r) {
    last.clear();
    double total = 0, ifit = 0, clus = 0, supp = 0, aw = 0, hl = 0, val = 0;
    archive_bytes = 0.0;
    const std::uint64_t cpu0 = process_cpu_ns(0);
    for (const TenantSpec& spec : w.tenants) {
      fs::create_directories(dir / "registry" / spec.tenant);
      FitOutcome fit = fit_pipeline(
          (dir / "hist" / (spec.tenant + ".csv")).string(),
          (dir / "registry" / spec.tenant / "1.hpcp").string(), spec.tenant,
          1);
      total += fit.total_s;
      ifit += fit.report.stage_seconds("interpolation.fit");
      clus += fit.report.stage_seconds("extrapolation.cluster");
      supp += fit.report.stage_seconds("extrapolation.support");
      aw += fit.archive_write_s;
      hl += fit.history_load_s;
      val += fit.validate_s;
      archive_bytes += static_cast<double>(fit.archive_bytes);
      last.push_back(std::move(fit));
    }
    round_total.push_back(total);
    round_cpu.push_back(static_cast<double>(process_cpu_ns(0) - cpu0) * 1e-9);
    interp_fit.push_back(ifit);
    cluster.push_back(clus);
    support.push_back(supp);
    archive_write.push_back(aw);
    history_load.push_back(hl);
    validate.push_back(val);
  }
  const double rss_mb = vm_hwm_mb();

  std::vector<double> mape;
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    mape.push_back(heldout_mape_pct(last[t].model, w.tenants[t].app,
                                    mix_seed(kHistorySeed, 20 + t)));
  }

  std::cout << JsonObject()
                   .str("workload", w.name)
                   .integer("fit_rounds", w.fit_rounds)
                   .num("fit_s", median(round_total))
                   .num("fit_cpu_s", median(round_cpu))
                   .num("mape_pct", mean(mape))
                   .num("fit_rss_mb", rss_mb)
                   .num("train.interpolation_fit_s", median(interp_fit))
                   .num("train.extrapolation_cluster_s", median(cluster))
                   .num("train.extrapolation_support_s", median(support))
                   .num("train.archive_write_ms", 1e3 * median(archive_write))
                   .num("train.archive_bytes", archive_bytes)
                   .num("data.history_load_ms", 1e3 * median(history_load))
                   .num("data.validate_ms", 1e3 * median(validate))
                   .dump()
            << '\n';
  return 0;
}

}  // namespace perfbench
