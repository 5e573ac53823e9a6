/// capacity_planning — use the model to answer an allocation question the
/// paper's introduction motivates: "what is the smallest process count that
/// finishes my job before the deadline, and what does each choice cost?"
///
/// The two-level model's fitted scalability curve can be evaluated at *any*
/// process count (ExtrapolationLevel::predict takes any list of scales), so
/// we sweep candidate widths in one call, build a
/// deadline/cost table, and validate the recommendation against the
/// simulator's ground truth.

#include <iostream>

#include "src/hpcpredict.hpp"

int main() {
  using namespace hpcp;

  ExperimentConfig config;
  config.app_name = "minimd";
  const Experiment exp = make_experiment(config);

  TwoLevelModel model;
  Rng rng(7);
  model.fit(exp.problem, rng);

  // The job to plan: a held-out configuration, never run anywhere.
  const auto params = exp.test.configs.row(1);
  std::cout << "planning job:";
  for (std::size_t d = 0; d < exp.problem.param_names.size(); ++d) {
    std::cout << ' ' << exp.problem.param_names[d] << '='
              << format_double(params[d], 1);
  }
  const double deadline = 1.0;  // seconds
  std::cout << "\ndeadline: " << format_double(deadline, 2) << " s\n";

  const auto curve = model.small_scale_curve(params, {});
  const std::vector<std::size_t> widths{16, 32, 48, 64, 96, 128, 192, 256};

  print_section(std::cout, "width sweep (model predictions)");
  TextTable table({"processes", "predicted time", "core-seconds",
                   "efficiency vs p=16", "meets deadline"});
  const auto times = model.extrapolation().predict(curve, widths);
  const double t16 = times.front();
  std::size_t recommended = 0;
  double recommended_time = 0.0;
  for (std::size_t w = 0; w < widths.size(); ++w) {
    const std::size_t p = widths[w];
    const double t = times[w];
    const double cost = t * static_cast<double>(p);
    const double efficiency =
        (t16 * 16.0) / cost;  // speedup relative to ideal from p=16
    const bool ok = t <= deadline;
    if (ok && recommended == 0) {
      recommended = p;
      recommended_time = t;
    }
    table.add_row({std::to_string(p), format_double(t, 3) + " s",
                   format_double(cost, 1),
                   format_double(100.0 * efficiency, 1) + " %",
                   ok ? "yes" : "no"});
  }
  table.print(std::cout);

  if (recommended == 0) {
    std::cout << "\nno width up to 256 meets the deadline — the model "
                 "predicts the job is too large.\n";
    return 0;
  }

  std::cout << "\nrecommendation: " << recommended << " processes\n";
  const double actual =
      exp.simulator.measure(*exp.app, params, recommended, /*run_id=*/424242);
  std::cout << "actual runtime at " << recommended
            << " processes: " << format_double(actual, 3) << " s ("
            << (actual <= deadline * 1.05 ? "deadline met"
                                          : "DEADLINE MISSED")
            << ", prediction error "
            << format_double(100.0 * (recommended_time - actual) / actual, 1)
            << " %)\n";
  return 0;
}
