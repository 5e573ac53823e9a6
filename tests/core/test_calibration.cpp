#include <cmath>

#include <gtest/gtest.h>

#include "src/common/metrics.hpp"
#include "src/core/experiment.hpp"
#include "src/core/two_level_model.hpp"

namespace hpcp {
namespace {

ExperimentConfig fft_config() {
  // fft3d has genuinely growing communication, so the small-scale-only
  // model under-predicts large scales — the systematic bias calibration
  // exists to fix.
  ExperimentConfig cfg;
  cfg.app_name = "fft3d";
  cfg.num_train = 150;
  cfg.num_test = 24;
  cfg.seed = 55;
  return cfg;
}

TEST(Calibration, StartsEmptyAndClears) {
  const auto exp = make_experiment(fft_config());
  TwoLevelModel model;
  Rng rng(1);
  model.fit(exp.problem, rng);
  EXPECT_EQ(model.num_calibration_points(), 0u);
  model.calibrate(exp.test.configs.row(0), 256,
                  exp.test.target_times(0, 3));
  EXPECT_EQ(model.num_calibration_points(), 1u);
  model.clear_calibration();
  EXPECT_EQ(model.num_calibration_points(), 0u);
}

TEST(Calibration, SingleObservationMovesPredictionTowardTruth) {
  const auto exp = make_experiment(fft_config());
  TwoLevelModel model;
  Rng rng(2);
  model.fit(exp.problem, rng);

  const auto params = exp.test.configs.row(0);
  const double truth = exp.test.target_times(0, 3);  // p=256
  const double before = model.predict(params)[3];
  model.calibrate(params, 256, truth);
  const double after = model.predict(params)[3];
  // One observation moves the prediction a third of the way (in log
  // space) toward the measurement — shrinkage keeps single runs from
  // dominating.
  EXPECT_LT(std::abs(std::log(after / truth)),
            std::abs(std::log(before / truth)));
  const double expected =
      before * std::exp(std::log(truth / before) / 3.0);
  EXPECT_NEAR(after, expected, expected * 1e-9);
}

TEST(Calibration, TransfersToOtherConfigsOnAverage) {
  // Calibrate with 6 configurations' p=256 measurements and score the
  // *other* 18. Per-configuration bias varies within a regime, so the
  // claim is statistical: averaged over experiments, transfer helps.
  double before_total = 0.0, after_total = 0.0;
  int improved = 0;
  for (const std::uint64_t seed : {56, 57, 59}) {
    auto cfg = fft_config();
    cfg.seed = seed;
    const auto exp = make_experiment(cfg);
    TwoLevelModel model;
    Rng rng(3);
    model.fit(exp.problem, rng);
    std::vector<double> truth, before, after;
    for (std::size_t i = 6; i < exp.test.size(); ++i) {
      truth.push_back(exp.test.target_times(i, 3));
      before.push_back(model.predict(exp.test.configs.row(i))[3]);
    }
    for (std::size_t i = 0; i < 6; ++i) {
      model.calibrate(exp.test.configs.row(i), 256,
                      exp.test.target_times(i, 3));
    }
    for (std::size_t i = 6; i < exp.test.size(); ++i) {
      after.push_back(model.predict(exp.test.configs.row(i))[3]);
    }
    before_total += mape(truth, before);
    after_total += mape(truth, after);
    improved += mape(truth, after) < mape(truth, before) ? 1 : 0;
  }
  EXPECT_LT(after_total, before_total);
  EXPECT_GE(improved, 2);
}

TEST(Calibration, AppliesToUncertaintyAndScalingCurve) {
  const auto exp = make_experiment(fft_config());
  TwoLevelModel model;
  Rng rng(4);
  model.fit(exp.problem, rng);
  const auto params = exp.test.configs.row(1);

  const double before_curve =
      model.predict_curve_at_scales(model.interpolation().predict_curve(params),
                                    std::vector<std::size_t>{256})[0];
  const double before_interval =
      model.predict_with_uncertainty(params)[3].value;

  // A measurement 2x the current prediction...
  model.calibrate(params, 256, 2.0 * before_curve);

  // ...scales every calibrated output of this cluster by the shrunk
  // factor 2^(1/3).
  const double factor = std::exp(std::log(2.0) / 3.0);
  const double after_curve =
      model.predict_curve_at_scales(model.interpolation().predict_curve(params),
                                    std::vector<std::size_t>{256})[0];
  const auto after_interval = model.predict_with_uncertainty(params)[3];
  EXPECT_NEAR(after_curve, factor * before_curve,
              factor * before_curve * 1e-9);
  EXPECT_NEAR(after_interval.value, factor * before_interval,
              factor * before_interval * 1e-9);
  EXPECT_LE(after_interval.lower, after_interval.value);
  EXPECT_GE(after_interval.upper, after_interval.value);
}

TEST(Calibration, RejectsBadInput) {
  const auto exp = make_experiment(fft_config());
  TwoLevelModel unfitted;
  EXPECT_THROW(unfitted.calibrate(exp.test.configs.row(0), 256, 1.0),
               std::invalid_argument);
  TwoLevelModel model;
  Rng rng(5);
  model.fit(exp.problem, rng);
  EXPECT_THROW(model.calibrate(exp.test.configs.row(0), 256, 0.0),
               std::invalid_argument);
}

TEST(ScalingCurve, MatchesTargetPredictionsAtTargetScales) {
  const auto exp = make_experiment(fft_config());
  TwoLevelModel model;
  Rng rng(6);
  model.fit(exp.problem, rng);
  const auto params = exp.test.configs.row(2);
  const auto targets = model.predict(params);
  const auto curve = model.predict_curve_at_scales(
      model.interpolation().predict_curve(params), exp.problem.target_scales);
  ASSERT_EQ(curve.size(), targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    EXPECT_NEAR(curve[t], targets[t], targets[t] * 1e-9);
  }
}

TEST(ScalingCurve, EvaluatesAtArbitraryScales) {
  const auto exp = make_experiment(fft_config());
  TwoLevelModel model;
  Rng rng(7);
  model.fit(exp.problem, rng);
  const std::vector<std::size_t> scales{20, 48, 100, 300};
  const auto curve = model.predict_curve_at_scales(
      model.interpolation().predict_curve(exp.test.configs.row(0)), scales);
  ASSERT_EQ(curve.size(), 4u);
  for (const double v : curve) EXPECT_GT(v, 0.0);
}

}  // namespace
}  // namespace hpcp
