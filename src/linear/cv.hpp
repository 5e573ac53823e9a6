#pragma once

#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/linear/lasso.hpp"

/// \file cv.hpp
/// K-fold cross-validation for penalty selection.

namespace hpcp {

/// Shuffled k-fold assignment: returns a fold id in [0, k) per row.
[[nodiscard]] std::vector<std::size_t> kfold_assignments(std::size_t n,
                                                         std::size_t k,
                                                         Rng& rng);

struct CvResult {
  double best_lambda = 0.0;
  std::vector<double> lambdas;
  std::vector<double> cv_mse;  ///< mean held-out MSE per lambda
};

/// Selects λ for the single-task lasso by k-fold CV over a log-spaced grid
/// derived from λ_max, then refits on all data.
[[nodiscard]] LinearModel fit_lasso_cv(const Matrix& x,
                                       std::span<const double> y,
                                       std::size_t folds, Rng& rng,
                                       CvResult* result = nullptr,
                                       std::size_t grid_size = 30);

}  // namespace hpcp
