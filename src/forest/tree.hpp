#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/forest/binning.hpp"
#include "src/linear/matrix.hpp"

/// \file tree.hpp
/// CART regression tree: binary splits chosen by variance reduction.
///
/// Two split-finding engines share one builder (see DESIGN.md
/// "Performance"):
///  - exact: per node, sort the rows by each candidate feature and scan
///    every adjacent-distinct midpoint (the classical O(d·n log n)/node
///    scan — bitwise the seed behaviour);
///  - histogram: pre-bin each feature once per fit (binning.hpp), then per
///    node accumulate (count, Σy) per bin and scan bin boundaries, with
///    the parent − sibling subtraction trick filling the larger child's
///    histogram for free.
/// SplitMode::kAuto (default) picks histogram for nodes larger than
/// `exact_cutoff` and falls back to the exact scan below it, so tiny HPC
/// histories keep exact splits while large fits get the fast path.
///
/// A RegressionTree is a fit-time builder: RandomForest and
/// GradientBoostedTrees grow trees, pack them into a FlatForest (the one
/// fitted form, which every predict runs on and the archive stores) and
/// drop them. Its own predict is the per-node reference walk the flat
/// kernels are tested against.

namespace hpcp {

/// Split-finding engine selection.
enum class SplitMode : std::uint8_t {
  kAuto = 0,       ///< histogram above exact_cutoff rows, exact below
  kExact = 1,      ///< exact sorted scan everywhere
  kHistogram = 2,  ///< histogram everywhere (no exact fallback)
};

struct TreeOptions {
  std::size_t max_depth = 0;         ///< 0 = unlimited
  std::size_t min_samples_split = 2; ///< fewer samples -> leaf
  std::size_t min_samples_leaf = 1;  ///< splits leaving smaller children rejected
  std::size_t mtry = 0;              ///< features tried per node; 0 = all
  SplitMode split_mode = SplitMode::kAuto;
  std::size_t max_bins = 64;         ///< histogram resolution (>= 2)
  /// Nodes with at most this many rows use the exact sorted scan under
  /// kAuto; a whole fit of at most this many rows skips binning entirely.
  /// The default keeps every small-history fit (the paper's regime) on the
  /// exact engine and reserves the histogram path for large matrices,
  /// where binning actually pays for itself.
  std::size_t exact_cutoff = 512;
};

class RegressionTree {
 public:
  /// Node of the fitted tree. Leaf iff left < 0; internal nodes send rows
  /// with features[feature] <= threshold left.
  struct Node {
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t feature = -1;
    double threshold = 0.0;
    double value = 0.0;  ///< mean target of the node's training rows
  };

  /// Fit on all rows of (x, y).
  void fit(const Matrix& x, std::span<const double> y,
           const TreeOptions& opts, Rng& rng);

  /// Fit on a subset of rows (duplicates allowed — bootstrap samples).
  /// `shared_bins`, if given, must be a BinnedMatrix over all rows of x
  /// (with codes row-indexed like x) built with the same max_bins; callers
  /// fitting many trees on one matrix (forests, GBM) bin once and share.
  /// With nullptr the tree bins its own rows when histogram mode applies.
  void fit(const Matrix& x, std::span<const double> y,
           std::span<const std::size_t> row_idx, const TreeOptions& opts,
           Rng& rng, const BinnedMatrix* shared_bins = nullptr);

  [[nodiscard]] double predict(std::span<const double> features) const;
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const;

  [[nodiscard]] bool fitted() const noexcept { return !nodes_.empty(); }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_leaves() const noexcept;
  [[nodiscard]] std::size_t depth() const noexcept;

  /// Flat node storage (pre-order); FlatForest packs these into SoA form.
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }

  /// Per-feature total variance reduction accumulated over all splits,
  /// weighted by node size (CART impurity importance, unnormalised).
  [[nodiscard]] const std::vector<double>& impurity_importance() const noexcept {
    return importance_;
  }

 private:
  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace hpcp
