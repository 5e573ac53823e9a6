/// job_scheduling — batch-queue planning with performance predictions.
///
/// A campaign of 16 jobs (mixed applications, unseen configurations) must
/// run on a 256-core partition. The scheduler uses the two-level models to
/// predict each job's runtime at candidate widths, picks per-job widths
/// that keep parallel efficiency acceptable, then packs jobs longest-first
/// onto the partition. We compare the predicted makespan against the
/// simulated "actual" execution — the end-to-end payoff of accurate
/// extrapolation.

#include <algorithm>
#include <iostream>
#include <map>

#include "src/hpcpredict.hpp"

namespace {

struct Job {
  std::string app;
  std::vector<double> params;
  std::size_t width = 0;
  double predicted = 0.0;
  double actual = 0.0;
};

}  // namespace

int main() {
  using namespace hpcp;
  constexpr std::size_t kPartition = 256;
  const std::vector<std::size_t> kWidths{16, 32, 64, 128};

  // Train one model per application from its (small-scale) history.
  std::map<std::string, Experiment> experiments;
  std::map<std::string, TwoLevelModel> models;
  for (const std::string app : {"heat3d", "minimd"}) {
    ExperimentConfig config;
    config.app_name = app;
    experiments.emplace(app, make_experiment(config));
    Rng rng(11);
    models[app].fit(experiments.at(app).problem, rng);
  }

  // The campaign: unseen configurations of both applications.
  std::vector<Job> jobs;
  for (const std::string app : {"heat3d", "minimd"}) {
    const auto& exp = experiments.at(app);
    for (std::size_t i = 0; i < 8; ++i) {
      Job job;
      job.app = app;
      const auto row = exp.test.configs.row(i);
      job.params.assign(row.begin(), row.end());
      jobs.push_back(std::move(job));
    }
  }

  // Width selection: widest width whose marginal efficiency (vs halving)
  // stays above 60% — don't waste cores on saturated jobs.
  for (auto& job : jobs) {
    const auto& model = models.at(job.app);
    const auto curve = model.small_scale_curve(job.params, {});
    const auto times = model.extrapolation().predict(curve, kWidths);
    job.width = kWidths.front();
    double prev_time = times.front();
    job.predicted = prev_time;
    for (std::size_t w = 1; w < kWidths.size(); ++w) {
      const double t = times[w];
      const double efficiency = prev_time / (2.0 * t);
      if (efficiency < 0.6) break;
      job.width = kWidths[w];
      job.predicted = t;
      prev_time = t;
    }
    const auto& exp = experiments.at(job.app);
    job.actual = exp.simulator.measure(*exp.app, job.params, job.width,
                                       /*run_id=*/900000 + job.width);
  }

  // Longest-processing-time-first packing onto the partition: maintain
  // per-slot free times for 256 cores split into width-sized slots is
  // overkill; model the partition as a pool of cores freed over time.
  std::sort(jobs.begin(), jobs.end(),
            [](const Job& a, const Job& b) { return a.predicted > b.predicted; });

  const auto simulate_makespan = [&](const auto& runtime_of) {
    // Greedy list scheduler: run each job as soon as enough cores free up.
    std::vector<std::pair<double, std::size_t>> running;  // (end, cores)
    std::size_t free_cores = kPartition;
    double clock = 0.0, makespan = 0.0;
    for (const auto& job : jobs) {
      while (free_cores < job.width) {
        auto next = std::min_element(running.begin(), running.end());
        clock = std::max(clock, next->first);
        free_cores += next->second;
        running.erase(next);
      }
      const double end = clock + runtime_of(job);
      running.emplace_back(end, job.width);
      free_cores -= job.width;
      makespan = std::max(makespan, end);
    }
    return makespan;
  };

  print_section(std::cout, "campaign plan");
  TextTable table({"job", "app", "width", "predicted", "actual", "error"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    table.add_row({std::to_string(i), job.app, std::to_string(job.width),
                   format_double(job.predicted, 2) + " s",
                   format_double(job.actual, 2) + " s",
                   format_double(100.0 * (job.predicted - job.actual) /
                                     job.actual, 1) + " %"});
  }
  table.print(std::cout);

  const double predicted_makespan =
      simulate_makespan([](const Job& j) { return j.predicted; });
  const double actual_makespan =
      simulate_makespan([](const Job& j) { return j.actual; });
  std::cout << "\npredicted campaign makespan: "
            << format_double(predicted_makespan, 1) << " s\n"
            << "actual campaign makespan:    "
            << format_double(actual_makespan, 1) << " s ("
            << format_double(100.0 * (predicted_makespan - actual_makespan) /
                                 actual_makespan, 1)
            << " % off)\n";
  return 0;
}
