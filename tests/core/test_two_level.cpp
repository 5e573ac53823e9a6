#include "src/core/two_level_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/experiment.hpp"
#include "src/data/validation.hpp"
#include "src/obs/obs.hpp"
#include "src/platform/fault_injector.hpp"

namespace hpcp {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.app_name = "heat3d";
  cfg.num_train = 80;
  cfg.num_test = 16;
  cfg.small_scales = {1, 2, 4, 8, 16};
  cfg.target_scales = {32, 64};
  cfg.seed = 77;
  return cfg;
}

TEST(TwoLevelModel, FitPredictEndToEnd) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(1);
  model.fit(exp.problem, rng);
  EXPECT_TRUE(model.interpolation().fitted());
  EXPECT_TRUE(model.extrapolation().fitted());
  const auto pred = model.predict(exp.test.configs.row(0), {});
  ASSERT_EQ(pred.size(), 2u);
  for (const double v : pred) EXPECT_GT(v, 0.0);
}

TEST(TwoLevelModel, PredictionsInTheRightBallpark) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(2);
  model.fit(exp.problem, rng);
  std::size_t within_2x = 0;
  for (std::size_t i = 0; i < exp.test.size(); ++i) {
    const auto pred = model.predict(exp.test.configs.row(i), {});
    for (std::size_t t = 0; t < pred.size(); ++t) {
      const double ratio = pred[t] / exp.test.target_times(i, t);
      within_2x += (ratio > 0.5 && ratio < 2.0) ? 1 : 0;
    }
  }
  // Most predictions land within 2× of truth.
  EXPECT_GE(within_2x, exp.test.size() * 2 * 8 / 10);
}

TEST(TwoLevelModel, DisplayNameConfigurable) {
  TwoLevelOptions opts;
  opts.display_name = "custom";
  const TwoLevelModel model(opts);
  EXPECT_EQ(model.name(), "custom");
}

TEST(TwoLevelModel, SmallScaleCurveUsesPredictionsByDefault) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(3);
  model.fit(exp.problem, rng);
  const auto measured = exp.test.small_times.row(0);
  const auto curve =
      model.small_scale_curve(exp.test.configs.row(0), measured);
  // Default: ignore the measured curve, use the forests.
  const auto rf_curve =
      model.interpolation().predict_curve(exp.test.configs.row(0));
  for (std::size_t s = 0; s < curve.size(); ++s) {
    EXPECT_DOUBLE_EQ(curve[s], rf_curve[s]);
  }
}

TEST(TwoLevelModel, PreferMeasuredCurveOptionUsesMeasurement) {
  const auto exp = make_experiment(small_config());
  TwoLevelOptions opts;
  opts.prefer_measured_curve = true;
  TwoLevelModel model(opts);
  Rng rng(4);
  model.fit(exp.problem, rng);
  const auto measured = exp.test.small_times.row(0);
  const auto curve =
      model.small_scale_curve(exp.test.configs.row(0), measured);
  for (std::size_t s = 0; s < curve.size(); ++s) {
    EXPECT_DOUBLE_EQ(curve[s], measured[s]);
  }
  // Without a measurement it falls back to the forests.
  const auto fallback = model.small_scale_curve(exp.test.configs.row(0), {});
  EXPECT_EQ(fallback.size(), measured.size());
}

TEST(TwoLevelModel, TrainOnTruthOptionChangesNothingStructurally) {
  const auto exp = make_experiment(small_config());
  TwoLevelOptions opts;
  opts.train_on_predictions = false;
  TwoLevelModel model(opts);
  Rng rng(5);
  model.fit(exp.problem, rng);
  const auto pred = model.predict(exp.test.configs.row(0), {});
  for (const double v : pred) EXPECT_GT(v, 0.0);
}

TEST(TwoLevelModel, FixedClusterCountHonoured) {
  const auto exp = make_experiment(small_config());
  TwoLevelOptions opts;
  opts.extrapolation.num_clusters = 1;
  TwoLevelModel model(opts);
  Rng rng(6);
  model.fit(exp.problem, rng);
  EXPECT_EQ(model.extrapolation().num_clusters(), 1u);
}

TEST(TwoLevelModel, DeterministicGivenSeed) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel a, b;
  Rng ra(7), rb(7);
  a.fit(exp.problem, ra);
  b.fit(exp.problem, rb);
  const auto pa = a.predict(exp.test.configs.row(0), {});
  const auto pb = b.predict(exp.test.configs.row(0), {});
  for (std::size_t t = 0; t < pa.size(); ++t) {
    EXPECT_DOUBLE_EQ(pa[t], pb[t]);
  }
}

TEST(TwoLevelModel, UncertaintyIntervalsContainPointPrediction) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(8);
  model.fit(exp.problem, rng);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto point = model.predict(exp.test.configs.row(i), {});
    const auto intervals =
        model.predict_with_uncertainty(exp.test.configs.row(i));
    ASSERT_EQ(intervals.size(), point.size());
    for (std::size_t t = 0; t < intervals.size(); ++t) {
      EXPECT_GT(intervals[t].lower, 0.0);
      EXPECT_LE(intervals[t].lower, intervals[t].value);
      EXPECT_GE(intervals[t].upper, intervals[t].value);
      EXPECT_DOUBLE_EQ(intervals[t].value, point[t]);
    }
  }
}

TEST(TwoLevelModel, UncertaintyIsDeterministicPerInput) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(9);
  model.fit(exp.problem, rng);
  const auto a = model.predict_with_uncertainty(exp.test.configs.row(0));
  const auto b = model.predict_with_uncertainty(exp.test.configs.row(0));
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_DOUBLE_EQ(a[t].lower, b[t].lower);
    EXPECT_DOUBLE_EQ(a[t].upper, b[t].upper);
  }
}

TEST(TwoLevelModel, UncertaintyCoversMostTruths) {
  // The 5–95% model-uncertainty interval, widened by nothing else, should
  // still cover a solid majority of ground truths on a small experiment.
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(10);
  model.fit(exp.problem, rng);
  std::size_t covered = 0, total = 0;
  for (std::size_t i = 0; i < exp.test.size(); ++i) {
    const auto intervals =
        model.predict_with_uncertainty(exp.test.configs.row(i));
    for (std::size_t t = 0; t < intervals.size(); ++t) {
      const double truth = exp.test.target_times(i, t);
      covered += (truth >= intervals[t].lower * 0.8 &&
                  truth <= intervals[t].upper * 1.2)
                     ? 1
                     : 0;
      ++total;
    }
  }
  EXPECT_GE(covered * 2, total);
}

TEST(TwoLevelModel, UncertaintyValidatesOptions) {
  const auto exp = make_experiment(small_config());
  TwoLevelOptions opts;
  opts.uncertainty_samples = 1;
  TwoLevelModel model(opts);
  Rng rng(11);
  model.fit(exp.problem, rng);
  EXPECT_THROW((void)model.predict_with_uncertainty(exp.test.configs.row(0)),
               std::invalid_argument);
}

TEST(TwoLevelModel, PredictBeforeFitThrows) {
  const TwoLevelModel model;
  const std::vector<double> params{128.0, 500.0, 1.0};
  EXPECT_THROW((void)model.predict(params, {}), std::invalid_argument);
}

TEST(TwoLevelModel, FitCheckedReportsNominalTraining) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(20);
  const auto report = model.fit_checked(exp.problem, rng);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->num_configs, exp.problem.num_configs());
  EXPECT_EQ(report->num_clusters, model.extrapolation().num_clusters());
  EXPECT_EQ(report->clusters.size(), report->num_clusters);
  // On clean simulated data every cluster trains on the nominal path.
  EXPECT_EQ(report->count_stage(FallbackStage::ClusterMultitask),
            report->num_clusters);
  EXPECT_EQ(model.train_report().num_configs, report->num_configs);
}

TEST(TwoLevelModel, FitRecordsStageTimings) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(26);
  const auto report = model.fit_checked(exp.problem, rng);
  ASSERT_TRUE(report.has_value());
  ASSERT_FALSE(report->timings.empty());
  // "total" closes the list and dominates every stage it contains.
  EXPECT_EQ(report->timings.back().stage, "total");
  const double total = report->stage_seconds("total");
  EXPECT_GT(total, 0.0);
  for (const char* stage :
       {"twolevel.validate", "interpolation.fit",
        "interpolation.predict_curves", "extrapolation.fit"}) {
    const double s = report->stage_seconds(stage);
    EXPECT_GE(s, 0.0) << stage;
    EXPECT_LE(s, total) << stage;
  }
  // Timings are recorded unconditionally — no tracing/metrics involved.
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_FALSE(obs::metrics_enabled());
  // Unknown stages read as zero, not a crash.
  EXPECT_DOUBLE_EQ(report->stage_seconds("no.such.stage"), 0.0);
}

TEST(TwoLevelModel, FitWithMetricsCountsFallbackRungs) {
  const auto exp = make_experiment(small_config());
  obs::global_metrics().reset_values();
  obs::set_metrics_enabled(true);
  TwoLevelModel model;
  Rng rng(27);
  const auto report = model.fit_checked(exp.problem, rng);
  obs::set_metrics_enabled(false);
  ASSERT_TRUE(report.has_value());
  // Every cluster lands on exactly one ladder rung; on clean data that is
  // the nominal cluster-multitask rung for all of them.
  const auto nominal =
      obs::global_metrics()
          .counter("fallback.rung", {{"stage", "cluster-multitask"}})
          .value();
  EXPECT_EQ(nominal, report->num_clusters);
  EXPECT_GE(obs::global_metrics().counter("lasso.multitask_fits").value(),
            1u);
  obs::global_metrics().reset_values();
}

TEST(TwoLevelModel, MetricsOnDoesNotChangePredictions) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel off_model;
  Rng off_rng(28);
  off_model.fit(exp.problem, off_rng);
  const auto off_pred = off_model.predict(exp.test.configs.row(0), {});

  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  TwoLevelModel on_model;
  Rng on_rng(28);
  on_model.fit(exp.problem, on_rng);
  const auto on_pred = on_model.predict(exp.test.configs.row(0), {});
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);
  obs::global_metrics().reset_values();
  obs::Tracer::instance().clear();

  ASSERT_EQ(on_pred.size(), off_pred.size());
  for (std::size_t t = 0; t < on_pred.size(); ++t) {
    EXPECT_DOUBLE_EQ(on_pred[t], off_pred[t]);
  }
}

TEST(TwoLevelModel, FitCheckedRejectsNonFiniteDataAsTypedError) {
  const auto exp = make_experiment(small_config());
  auto problem = exp.problem;
  problem.train_small_times(0, 0) = std::numeric_limits<double>::quiet_NaN();
  TwoLevelModel model;
  Rng rng(21);
  const auto report = model.fit_checked(problem, rng);
  ASSERT_FALSE(report.has_value());
  EXPECT_EQ(report.error().code, ErrorCode::BadData);
  // The throwing wrapper maps the same defect to invalid_argument.
  TwoLevelModel thrower;
  Rng rng2(21);
  EXPECT_THROW(thrower.fit(problem, rng2), std::invalid_argument);
}

TEST(TwoLevelModel, DegenerateClusterFallsBackToPowerLaw) {
  // Identical flat curves: the lasso has nothing to select, so both the
  // cluster and pooled multitask attempts shrink to an empty support and
  // the chain must land on the per-config power law — and still predict.
  Matrix curves(12, 4);
  for (std::size_t r = 0; r < curves.rows(); ++r) {
    for (std::size_t c = 0; c < curves.cols(); ++c) curves(r, c) = 7.0;
  }
  ExtrapolationLevel level(ExtrapolationLevelOptions{.num_clusters = 1});
  const std::vector<std::size_t> small{1, 2, 4, 8};
  const std::vector<std::size_t> targets{32};
  Rng rng(22);
  TrainReport report;
  level.fit(curves, small, targets, rng, &report);
  ASSERT_EQ(report.clusters.size(), 1u);
  EXPECT_EQ(report.clusters[0].stage, FallbackStage::PerConfigOls);
  EXPECT_FALSE(report.clusters[0].reason.empty());
  EXPECT_FALSE(report.fully_nominal());
  EXPECT_EQ(level.cluster_stage(0), FallbackStage::PerConfigOls);

  const std::vector<double> flat(4, 7.0);
  const auto pred = level.predict(flat, targets);
  ASSERT_EQ(pred.size(), 1u);
  // A flat curve extrapolates flat under a power law.
  EXPECT_NEAR(pred[0], 7.0, 0.5);
}

TEST(TwoLevelModel, AmdahlPresetWhenPowerLawUnidentifiable) {
  // A single distinct small scale: no exponent is identifiable, so the
  // last rung of the ladder (support = {"1/p"} + intercept) must catch.
  Matrix curves(6, 2);
  for (std::size_t r = 0; r < curves.rows(); ++r) {
    curves(r, 0) = 3.0;
    curves(r, 1) = 3.0;
  }
  ExtrapolationLevel level(ExtrapolationLevelOptions{.num_clusters = 1});
  const std::vector<std::size_t> small{4, 4};
  const std::vector<std::size_t> targets{64};
  Rng rng(23);
  TrainReport report;
  level.fit(curves, small, targets, rng, &report);
  ASSERT_EQ(report.clusters.size(), 1u);
  EXPECT_EQ(report.clusters[0].stage, FallbackStage::AmdahlPreset);
  ASSERT_EQ(report.clusters[0].support.size(), 1u);
  EXPECT_EQ(report.clusters[0].support[0], 0u);

  const std::vector<double> flat(2, 3.0);
  const auto pred = level.predict(flat, targets);
  ASSERT_EQ(pred.size(), 1u);
  EXPECT_GT(pred[0], 0.0);
  EXPECT_TRUE(std::isfinite(pred[0]));
}

TEST(TwoLevelModel, TenPercentCorruptedHistoryStillTrainsEndToEnd) {
  // The acceptance scenario for the robustness pipeline: corrupt 10% of
  // the history, quarantine, train via fit_checked, and stay usable on a
  // clean test set.
  const auto exp = make_experiment(small_config());
  Rng fault_rng(24);
  FaultSummary injected;
  const HistoryStore corrupted =
      inject_faults(exp.history, FaultSpec::uniform(0.10), fault_rng,
                    &injected);
  EXPECT_GT(injected.total(), 0u);

  const auto validated = validate_history(corrupted);
  ASSERT_TRUE(validated.has_value());
  const auto problem = make_problem(
      validated->store, validated->store.scales(), exp.config.target_scales);
  ASSERT_GT(problem.num_configs(), 0u);

  TwoLevelModel model;
  Rng rng(25);
  const auto report = model.fit_checked(problem, rng);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();

  std::size_t within_2x = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < exp.test.size(); ++i) {
    const auto pred = model.predict(exp.test.configs.row(i), {});
    for (std::size_t t = 0; t < pred.size(); ++t) {
      ASSERT_TRUE(std::isfinite(pred[t]));
      ASSERT_GT(pred[t], 0.0);
      const double ratio = pred[t] / exp.test.target_times(i, t);
      within_2x += (ratio > 0.5 && ratio < 2.0) ? 1 : 0;
      ++total;
    }
  }
  // Corruption costs accuracy but not usability: at least half the
  // predictions stay within 2x of truth.
  EXPECT_GE(within_2x * 2, total);
}

}  // namespace
}  // namespace hpcp
