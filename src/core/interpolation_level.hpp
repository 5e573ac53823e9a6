#pragma once

#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/problem.hpp"
#include "src/forest/random_forest.hpp"

/// \file interpolation_level.hpp
/// The paper's interpolation level: one random-forest regressor per small
/// scale, each mapping application parameters to the runtime at that scale.
/// Training data at small scales is plentiful and i.i.d. with respect to
/// the prediction targets, so standard supervised learning applies.
///
/// Parallelism & determinism: fit() draws one anchor from the caller's Rng
/// and derives an independent stream per scale from (anchor, scale value,
/// scale index), so every scale's forest sees the same randomness no matter
/// how the per-scale fits are scheduled. When the pool is wider than the
/// scale count the scales fit serially and each forest parallelizes over
/// its trees; otherwise the scales fan out and trees build inline. Both
/// policies produce bitwise-identical forests.

namespace hpcp {

class InterpolationLevel {
 public:
  InterpolationLevel() = default;

  /// `log_target` (default on) fits the forests on log-runtimes: runtimes
  /// span orders of magnitude across a parameter space, and the evaluation
  /// metric is relative error, so learning in log space is the right
  /// objective. Predictions are mapped back with exp().
  explicit InterpolationLevel(ForestOptions forest_options,
                              bool log_target = true)
      : forest_options_(forest_options), log_target_(log_target) {}

  /// Fit one forest per small scale on (interp_configs, interp_small_times).
  /// Per-scale fits batch over `pool` (nullptr = the global pool); the
  /// fitted forests are bitwise independent of the pool size.
  ///
  /// `warm`, when given and fitted on the same scale set with the same
  /// feature width and tree count, seeds each scale's forest with the prior
  /// split structure (RandomForest::warm_fit); scales whose prior structure
  /// no longer covers the data fall back to a cold fit with that scale's
  /// derived Rng stream. Returns how many scales took the warm path (0 for
  /// a fully cold fit). The warm/cold choice depends only on the data, so
  /// the fitted level stays bitwise independent of the pool size.
  std::size_t fit(const ExtrapolationProblem& problem, Rng& rng,
                  ThreadPool* pool = nullptr,
                  const InterpolationLevel* warm = nullptr);

  /// Predicted small-scale runtime curve (one value per small scale): row
  /// 0 of predict_curves over a one-row matrix, so it equals the batched
  /// path's row bit for bit.
  [[nodiscard]] std::vector<double> predict_curve(
      std::span<const double> params) const;

  /// Curves for many configurations (rows × small scales).
  [[nodiscard]] Matrix predict_curves(const Matrix& configs) const;

  /// Curve plus the forests' ensemble spread, the model-uncertainty input
  /// to TwoLevelModel::predict_with_uncertainty. `log_spread[s]` is the
  /// standard deviation of the per-tree predictions in log space (i.e. a
  /// relative spread), regardless of the log_target setting.
  struct CurveWithSpread {
    std::vector<double> curve;
    std::vector<double> log_spread;
  };
  [[nodiscard]] CurveWithSpread predict_curve_stats(
      std::span<const double> params) const;

  [[nodiscard]] bool fitted() const noexcept { return !forests_.empty(); }
  [[nodiscard]] std::size_t num_scales() const noexcept {
    return forests_.size();
  }
  /// Parameter-vector width the forests expect (0 before any fit).
  [[nodiscard]] std::size_t num_features() const noexcept {
    return forests_.empty() ? 0 : forests_.front().num_features();
  }
  [[nodiscard]] const RandomForest& forest(std::size_t scale_idx) const {
    return forests_.at(scale_idx);
  }
  [[nodiscard]] const std::vector<std::size_t>& scales() const noexcept {
    return scales_;
  }

  [[nodiscard]] bool log_target() const noexcept { return log_target_; }

  /// Serialization of the fitted level.
  void save(Serializer& out) const;
  [[nodiscard]] static InterpolationLevel load(Deserializer& in);

 private:
  ForestOptions forest_options_{};
  bool log_target_ = true;
  std::vector<RandomForest> forests_;
  std::vector<std::size_t> scales_;
};

}  // namespace hpcp
