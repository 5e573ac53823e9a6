#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/common/thread_pool.hpp"
#include "src/forest/flat_forest.hpp"
#include "src/forest/tree.hpp"
#include "src/linear/matrix.hpp"

/// \file random_forest.hpp
/// Bagged ensemble of CART regression trees — the paper's interpolation-
/// level learner.
///
/// Training bins the feature columns once per fit and shares the bins
/// across all trees (histogram split finding; see tree.hpp). The grown
/// trees are packed into a FlatForest and dropped: the flat arrays are the
/// forest's only fitted form, and every prediction path (scalar, batched,
/// ensemble statistics, the out-of-bag pass), the warm refit and the
/// archive run on them.

namespace hpcp {

struct ForestOptions {
  std::size_t num_trees = 100;
  TreeOptions tree{.min_samples_leaf = 1, .mtry = 0};
  bool bootstrap = true;
  /// Fraction of features tried per split when tree.mtry == 0:
  /// mtry = max(1, round(ratio * d)). Default considers all features, the
  /// standard choice for regression forests (scikit-learn's default);
  /// randomness then comes from bagging alone.
  double mtry_ratio = 1.0;
  bool compute_oob = true;
};

class RandomForest {
 public:
  RandomForest() = default;
  explicit RandomForest(ForestOptions opts) : opts_(opts) {}

  /// Fit all trees; tree fitting and the OOB pass are parallelised across
  /// the pool (nullptr = the global pool). Deterministic given the Rng seed
  /// regardless of the number of worker threads: per-tree Rngs are forked
  /// up front and OOB contributions are merged in tree order.
  void fit(const Matrix& x, std::span<const double> y, Rng& rng,
           ThreadPool* pool = nullptr);

  /// Warm refit from a prior ensemble: keeps `prior`'s split structure and
  /// recomputes every leaf value from (x, y) (FlatForest::refit_leaves) and
  /// keeps the prior's feature importances — no split search, no
  /// bootstrap, no RNG, so the result is bitwise identical at any pool
  /// width. Returns false (leaving *this* untouched) when the prior does
  /// not match (unfitted, different feature width or tree count) or some
  /// leaf receives no rows; callers then fall back to a cold fit(). The
  /// refitted ensemble has no OOB estimate.
  [[nodiscard]] bool warm_fit(const RandomForest& prior, const Matrix& x,
                              std::span<const double> y,
                              ThreadPool* pool = nullptr);

  [[nodiscard]] double predict(std::span<const double> features) const;

  /// Batched prediction over every row of x (FlatForest fast path).
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const;

  /// Mean and standard deviation of the per-tree predictions — the ensemble
  /// spread, a useful uncertainty proxy.
  struct PredictionStats {
    double mean = 0.0;
    double stddev = 0.0;
  };
  [[nodiscard]] PredictionStats predict_stats(
      std::span<const double> features) const;

  [[nodiscard]] bool fitted() const noexcept { return !flat_.empty(); }
  [[nodiscard]] std::size_t num_trees() const noexcept {
    return flat_.num_trees();
  }
  /// Width of the feature vectors this forest was fitted on (persisted, so
  /// loaded models can validate query widths at a trust boundary).
  [[nodiscard]] std::size_t num_features() const noexcept {
    return num_features_;
  }
  [[nodiscard]] const ForestOptions& options() const noexcept { return opts_; }

  /// The flattened ensemble every prediction call runs on.
  [[nodiscard]] const FlatForest& flat() const noexcept { return flat_; }

  /// Out-of-bag MSE; empty if bootstrap/compute_oob was off or some row was
  /// never out of bag.
  [[nodiscard]] std::optional<double> oob_mse() const noexcept {
    return oob_mse_;
  }

  /// Impurity-based importance summed over trees in tree order at fit,
  /// normalised to sum to 1 (all-zero if no splits were made).
  [[nodiscard]] const std::vector<double>& feature_importance() const;

  /// Serialization of the fitted ensemble (fit-time options are not
  /// persisted; a loaded forest predicts but is not refittable-in-place).
  /// save() writes the packed flat arrays behind the "forest-flat" tag;
  /// load() also reads the per-tree records of the older "forest" tag.
  void save(Serializer& out) const;
  [[nodiscard]] static RandomForest load(Deserializer& in);

 private:
  ForestOptions opts_;
  FlatForest flat_;
  std::optional<double> oob_mse_;
  std::vector<double> importance_;
  std::size_t num_features_ = 0;
};

}  // namespace hpcp
