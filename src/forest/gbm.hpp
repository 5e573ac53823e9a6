#pragma once

#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/forest/flat_forest.hpp"
#include "src/forest/tree.hpp"
#include "src/linear/matrix.hpp"

/// \file gbm.hpp
/// Gradient-boosted regression trees (least-squares boosting): the other
/// standard tabular learner HPC-performance papers compare against. Each
/// stage fits a shallow CART tree to the current residuals and is added
/// with a small learning rate; optional row subsampling (stochastic
/// gradient boosting) decorrelates stages.
///
/// Training bins the feature columns once and shares the bins across all
/// rounds; each round's residual update and every predict call run batched
/// on the flattened (FlatForest) tree layout, the ensemble's only fitted
/// form (each round's tree is packed and dropped).

namespace hpcp {

struct GbmOptions {
  std::size_t num_rounds = 200;
  double learning_rate = 0.1;
  TreeOptions tree{.max_depth = 3, .min_samples_leaf = 3};
  /// Fraction of rows drawn (without replacement) per round; 1.0 = all.
  double subsample = 0.8;
};

class GradientBoostedTrees {
 public:
  GradientBoostedTrees() = default;
  explicit GradientBoostedTrees(GbmOptions opts) : opts_(opts) {}

  void fit(const Matrix& x, std::span<const double> y, Rng& rng);

  [[nodiscard]] double predict(std::span<const double> features) const;

  /// Batched prediction over every row of x (FlatForest fast path).
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const;

  /// Staged predictions: row k of the result holds the model's predictions
  /// after (k + 1) * stride rounds (the last row always includes every
  /// round). One batched pass over the ensemble — for early-stopping and
  /// learning-curve analysis without refitting.
  [[nodiscard]] Matrix staged_predict(const Matrix& x,
                                      std::size_t stride = 1) const;

  [[nodiscard]] bool fitted() const noexcept { return !flat_.empty(); }
  [[nodiscard]] std::size_t num_rounds() const noexcept {
    return flat_.num_trees();
  }
  [[nodiscard]] const GbmOptions& options() const noexcept { return opts_; }

  /// Training MSE after each round (for monitoring / early-stopping tests).
  [[nodiscard]] const std::vector<double>& training_curve() const noexcept {
    return train_mse_;
  }

 private:
  GbmOptions opts_{};
  double base_prediction_ = 0.0;
  FlatForest flat_;  ///< one packed tree per round, in round order
  std::vector<double> train_mse_;
};

}  // namespace hpcp
