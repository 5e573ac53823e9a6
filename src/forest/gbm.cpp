#include "src/forest/gbm.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/check.hpp"
#include "src/common/stats.hpp"
#include "src/forest/binning.hpp"
#include "src/obs/obs.hpp"

namespace hpcp {

void GradientBoostedTrees::fit(const Matrix& x, std::span<const double> y,
                               Rng& rng) {
  const obs::Span span("gbm.fit");
  HPCP_REQUIRE(x.rows() == y.size(), "row count must match target length");
  HPCP_REQUIRE(x.rows() > 0, "cannot fit on empty data");
  HPCP_REQUIRE(opts_.num_rounds > 0, "need at least one round");
  HPCP_REQUIRE(opts_.learning_rate > 0.0 && opts_.learning_rate <= 1.0,
               "learning rate must be in (0, 1]");
  HPCP_REQUIRE(opts_.subsample > 0.0 && opts_.subsample <= 1.0,
               "subsample fraction must be in (0, 1]");

  const std::size_t n = x.rows();
  base_prediction_ = mean(y);
  std::vector<std::vector<RegressionTree::Node>> rounds;
  rounds.reserve(opts_.num_rounds);
  train_mse_.clear();
  train_mse_.reserve(opts_.num_rounds);

  // residual[i] = y_i − F(x_i); for squared loss the negative gradient.
  std::vector<double> residual(n);
  for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - base_prediction_;

  const auto sample_rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(opts_.subsample * static_cast<double>(n)));

  // Bin once; every round's tree shares the same feature bins (the feature
  // matrix never changes across rounds — only the residual target does).
  const bool want_hist =
      opts_.tree.split_mode == SplitMode::kHistogram ||
      (opts_.tree.split_mode == SplitMode::kAuto &&
       sample_rows > opts_.tree.exact_cutoff);
  obs::count("forest.split_mode", 1,
             {{"engine", want_hist ? "hist" : "exact"}});
  BinnedMatrix bins;
  if (want_hist) bins = BinnedMatrix::build(x, opts_.tree.max_bins);
  const BinnedMatrix* shared_bins = want_hist ? &bins : nullptr;

  for (std::size_t round = 0; round < opts_.num_rounds; ++round) {
    std::vector<std::size_t> rows;
    if (sample_rows < n) {
      rows = rng.sample_without_replacement(n, sample_rows);
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
    }
    RegressionTree tree;
    Rng tree_rng = rng.fork();
    tree.fit(x, residual, rows, opts_.tree, tree_rng, shared_bins);

    rounds.push_back(tree.nodes());

    // Staged residual update, batched over all rows via the flat layout.
    const FlatForest stage = FlatForest::build({&rounds.back(), 1});
    stage.accumulate_tree(0, x, -opts_.learning_rate, residual);
    double mse = 0.0;
    for (std::size_t i = 0; i < n; ++i) mse += residual[i] * residual[i];
    train_mse_.push_back(mse / static_cast<double>(n));
  }
  flat_ = FlatForest::build(rounds);
}

double GradientBoostedTrees::predict(std::span<const double> features) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  double acc = base_prediction_;
  for (std::size_t t = 0; t < flat_.num_trees(); ++t) {
    acc += opts_.learning_rate * flat_.predict_tree_row(t, features);
  }
  return acc;
}

std::vector<double> GradientBoostedTrees::predict(const Matrix& x) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  std::vector<double> out(x.rows(), base_prediction_);
  for (std::size_t t = 0; t < flat_.num_trees(); ++t) {
    flat_.accumulate_tree(t, x, opts_.learning_rate, out);
  }
  return out;
}

Matrix GradientBoostedTrees::staged_predict(const Matrix& x,
                                            std::size_t stride) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  HPCP_REQUIRE(stride >= 1, "stride must be >= 1");
  const std::size_t rounds = flat_.num_trees();
  const std::size_t stages = (rounds + stride - 1) / stride;
  Matrix out(stages, x.rows());
  std::vector<double> acc(x.rows(), base_prediction_);
  std::size_t stage = 0;
  for (std::size_t t = 0; t < rounds; ++t) {
    flat_.accumulate_tree(t, x, opts_.learning_rate, acc);
    if ((t + 1) % stride == 0 || t + 1 == rounds) {
      out.set_row(stage++, acc);
    }
  }
  HPCP_ASSERT(stage == stages, "stage count mismatch");
  return out;
}

}  // namespace hpcp
