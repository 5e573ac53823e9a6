#include "src/linear/cv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/check.hpp"

namespace hpcp {

std::vector<std::size_t> kfold_assignments(std::size_t n, std::size_t k,
                                           Rng& rng) {
  HPCP_REQUIRE(k >= 2, "need at least 2 folds");
  HPCP_REQUIRE(n >= k, "need at least one row per fold");
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<std::size_t> fold(n);
  for (std::size_t i = 0; i < n; ++i) fold[order[i]] = i % k;
  return fold;
}

namespace {

struct FoldSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

std::vector<FoldSplit> make_splits(const std::vector<std::size_t>& fold,
                                   std::size_t k) {
  std::vector<FoldSplit> splits(k);
  for (std::size_t i = 0; i < fold.size(); ++i) {
    for (std::size_t f = 0; f < k; ++f) {
      (fold[i] == f ? splits[f].test : splits[f].train).push_back(i);
    }
  }
  return splits;
}

}  // namespace

LinearModel fit_lasso_cv(const Matrix& x, std::span<const double> y,
                         std::size_t folds, Rng& rng, CvResult* result,
                         std::size_t grid_size) {
  HPCP_REQUIRE(x.rows() == y.size(), "row count must match target length");
  const double lmax = lasso_lambda_max(x, y);
  if (lmax <= 0.0) {
    // Target is constant (or orthogonal to all features): intercept-only.
    LinearModel m = fit_lasso(x, y, {.lambda = 1.0});
    if (result != nullptr) *result = {};
    return m;
  }
  const auto grid = lambda_grid(lmax, grid_size);
  const auto fold = kfold_assignments(x.rows(), folds, rng);
  const auto splits = make_splits(fold, folds);

  CvResult cv;
  cv.lambdas = grid;
  cv.cv_mse.assign(grid.size(), 0.0);
  for (std::size_t g = 0; g < grid.size(); ++g) {
    double mse_sum = 0.0;
    for (const auto& split : splits) {
      const Matrix xtr = x.select_rows(split.train);
      std::vector<double> ytr(split.train.size());
      for (std::size_t i = 0; i < split.train.size(); ++i) {
        ytr[i] = y[split.train[i]];
      }
      const LinearModel m = fit_lasso(xtr, ytr, {.lambda = grid[g]});
      double mse = 0.0;
      for (const std::size_t i : split.test) {
        const double e = m.predict(x.row(i)) - y[i];
        mse += e * e;
      }
      mse_sum += mse / static_cast<double>(split.test.size());
    }
    cv.cv_mse[g] = mse_sum / static_cast<double>(folds);
  }
  const auto best = std::min_element(cv.cv_mse.begin(), cv.cv_mse.end());
  cv.best_lambda = grid[static_cast<std::size_t>(best - cv.cv_mse.begin())];
  if (result != nullptr) *result = cv;
  return fit_lasso(x, y, {.lambda = cv.best_lambda});
}

}  // namespace hpcp
