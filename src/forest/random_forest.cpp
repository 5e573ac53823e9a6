#include "src/forest/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/common/check.hpp"
#include "src/forest/binning.hpp"
#include "src/obs/obs.hpp"

namespace hpcp {

namespace {

/// Per-tree impurity importances summed in tree order, normalised to sum
/// to 1 (all-zero if no splits were made).
std::vector<double> normalised_importance(
    std::span<const std::vector<double>> per_tree, std::size_t num_features) {
  std::vector<double> total(num_features, 0.0);
  for (const auto& imp : per_tree) {
    HPCP_REQUIRE(imp.size() == num_features,
                 "tree importance width mismatch");
    for (std::size_t f = 0; f < num_features; ++f) total[f] += imp[f];
  }
  const double sum = std::accumulate(total.begin(), total.end(), 0.0);
  if (sum > 0.0) {
    for (auto& v : total) v /= sum;
  }
  return total;
}

}  // namespace

void RandomForest::fit(const Matrix& x, std::span<const double> y, Rng& rng,
                       ThreadPool* pool) {
  const obs::Span span("forest.fit");
  HPCP_REQUIRE(x.rows() == y.size(), "row count must match target length");
  HPCP_REQUIRE(x.rows() > 0, "cannot fit on empty data");
  HPCP_REQUIRE(opts_.num_trees > 0, "need at least one tree");

  num_features_ = x.cols();
  TreeOptions tree_opts = opts_.tree;
  if (tree_opts.mtry == 0 && opts_.mtry_ratio < 1.0) {
    tree_opts.mtry = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(opts_.mtry_ratio * static_cast<double>(x.cols()))));
  }

  const std::size_t n = x.rows();
  const std::size_t t = opts_.num_trees;

  // Quantile-bin the feature columns once and share the bins across all
  // trees (bootstrap samples draw from the same rows, so per-tree binning
  // would rediscover near-identical boundaries t times over).
  const bool want_hist =
      tree_opts.split_mode == SplitMode::kHistogram ||
      (tree_opts.split_mode == SplitMode::kAuto && n > tree_opts.exact_cutoff);
  obs::count("forest.split_mode", 1,
             {{"engine", want_hist ? "hist" : "exact"}});
  BinnedMatrix bins;
  if (want_hist) bins = BinnedMatrix::build(x, tree_opts.max_bins);
  const BinnedMatrix* shared_bins = want_hist ? &bins : nullptr;

  // Pre-draw per-tree RNGs and bootstrap samples on the caller's thread so
  // results do not depend on worker scheduling.
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(t);
  std::vector<std::vector<std::size_t>> samples(t);
  for (std::size_t i = 0; i < t; ++i) {
    tree_rngs.push_back(rng.fork());
    if (opts_.bootstrap) {
      samples[i] = tree_rngs.back().bootstrap_indices(n);
    } else {
      samples[i].resize(n);
      std::iota(samples[i].begin(), samples[i].end(), std::size_t{0});
    }
  }

  // Grow, flatten, drop: the node-based trees live only until packed.
  std::vector<std::vector<RegressionTree::Node>> grown(t);
  std::vector<std::vector<double>> tree_importance(t);
  parallel_for(
      t,
      [&](std::size_t i) {
        RegressionTree tree;
        tree.fit(x, y, samples[i], tree_opts, tree_rngs[i], shared_bins);
        grown[i] = tree.nodes();
        tree_importance[i] = tree.impurity_importance();
      },
      pool);
  flat_ = FlatForest::build(grown);
  grown = {};
  importance_ = normalised_importance(tree_importance, num_features_);

  oob_mse_.reset();
  if (opts_.bootstrap && opts_.compute_oob) {
    // Per-tree OOB predictions computed in parallel, then merged serially
    // in tree order — bit-identical results for any pool size.
    struct OobPart {
      std::vector<std::size_t> rows;
      std::vector<double> preds;
    };
    const auto parts = parallel_map(
        t,
        [&](std::size_t i) {
          OobPart part;
          std::vector<char> in_bag(n, 0);
          for (const std::size_t r : samples[i]) in_bag[r] = 1;
          for (std::size_t r = 0; r < n; ++r) {
            if (!in_bag[r]) part.rows.push_back(r);
          }
          part.preds.resize(part.rows.size());
          flat_.predict_tree_rows(i, x, part.rows, part.preds);
          return part;
        },
        pool);

    std::vector<double> oob_sum(n, 0.0);
    std::vector<std::size_t> oob_count(n, 0);
    for (const OobPart& part : parts) {
      for (std::size_t k = 0; k < part.rows.size(); ++k) {
        oob_sum[part.rows[k]] += part.preds[k];
        ++oob_count[part.rows[k]];
      }
    }
    double mse = 0.0;
    std::size_t covered = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (oob_count[r] == 0) continue;
      const double pred = oob_sum[r] / static_cast<double>(oob_count[r]);
      mse += (pred - y[r]) * (pred - y[r]);
      ++covered;
    }
    if (covered == n) {
      oob_mse_ = mse / static_cast<double>(n);
    }
  }
}

bool RandomForest::warm_fit(const RandomForest& prior, const Matrix& x,
                            std::span<const double> y, ThreadPool* pool) {
  const obs::Span span("forest.warm_fit");
  HPCP_REQUIRE(x.rows() == y.size(), "row count must match target length");
  if (!prior.fitted() || x.rows() == 0 ||
      prior.num_features_ != x.cols() ||
      prior.num_trees() != opts_.num_trees) {
    return false;
  }
  // Route every row through every prior tree and recompute leaf values.
  // Ensemble diversity is inherited from the prior structure (which came
  // from bootstrapped fits); the refit itself is a pure function of the
  // data, so it needs no RNG and stays thread-count invariant.
  auto refit = prior.flat_.refit_leaves(x, y, pool);
  if (!refit) return false;
  obs::count("forest.warm_fits");
  flat_ = std::move(*refit);
  importance_ = prior.importance_;
  num_features_ = x.cols();
  oob_mse_.reset();
  return true;
}

namespace {

/// A feature vector as a 1-row batch: single-row predicts run the same
/// slot walk as windows and training batches.
Matrix one_row(std::span<const double> features) {
  Matrix x(1, features.size());
  x.set_row(0, features);
  return x;
}

}  // namespace

double RandomForest::predict(std::span<const double> features) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  return flat_.predict_mean(one_row(features))[0];
}

std::vector<double> RandomForest::predict(const Matrix& x) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  return flat_.predict_mean(x);
}

RandomForest::PredictionStats RandomForest::predict_stats(
    std::span<const double> features) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  double sum = 0.0;
  double sum_sq = 0.0;
  flat_.predict_moments(one_row(features), {&sum, 1}, {&sum_sq, 1});
  const auto t = static_cast<double>(flat_.num_trees());
  const double mean = sum / t;
  const double var = std::max(0.0, sum_sq / t - mean * mean);
  return {.mean = mean, .stddev = std::sqrt(var)};
}

const std::vector<double>& RandomForest::feature_importance() const {
  HPCP_REQUIRE(fitted(), "importance before fit");
  return importance_;
}

void RandomForest::save(Serializer& out) const {
  out.tag("forest-flat");
  out.write(num_features_);
  out.write(oob_mse_.has_value());
  out.write(oob_mse_.value_or(0.0));
  out.write(importance_);
  flat_.save(out);
}

RandomForest RandomForest::load(Deserializer& in) {
  const std::string tag = in.read_string();
  if (tag != "forest-flat" && tag != "forest") {
    throw std::runtime_error(
        "model archive corrupt: expected tag 'forest-flat', found '" + tag +
        "'");
  }
  RandomForest forest;
  forest.num_features_ = in.read_size();
  const bool has_oob = in.read_bool();
  const double oob = in.read_double();
  if (has_oob) forest.oob_mse_ = oob;
  if (tag == "forest-flat") {
    forest.importance_ = in.read_doubles();
    HPCP_REQUIRE(forest.importance_.size() == forest.num_features_,
                 "forest importance width mismatch");
    forest.flat_ = FlatForest::load(in, forest.num_features_);
    return forest;
  }
  // The legacy "forest" tag: per tree, tag "tree", (left, right, feature,
  // threshold, value) per pre-order node, then the tree's importances.
  // Packed and summed as a fit does; the counts are untrusted, so nothing
  // is sized from them.
  const std::size_t count = in.read_size();
  std::vector<std::vector<RegressionTree::Node>> trees;
  std::vector<std::vector<double>> tree_importance;
  for (std::size_t t = 0; t < count; ++t) {
    in.expect_tag("tree");
    std::vector<RegressionTree::Node>& nodes = trees.emplace_back();
    const std::size_t size = in.read_size();
    for (std::size_t i = 0; i < size; ++i) {
      RegressionTree::Node& n = nodes.emplace_back();
      n.left = static_cast<std::int32_t>(in.read_int());
      n.right = static_cast<std::int32_t>(in.read_int());
      n.feature = static_cast<std::int32_t>(in.read_int());
      n.threshold = in.read_double();
      n.value = in.read_double();
    }
    tree_importance.push_back(in.read_doubles());
  }
  forest.flat_ = FlatForest::build(trees);
  HPCP_REQUIRE(forest.fitted() &&
                   forest.flat_.min_feature_width() <= forest.num_features_,
               "legacy forest: no trees, or a split feature out of range");
  forest.importance_ =
      normalised_importance(tree_importance, forest.num_features_);
  return forest;
}

}  // namespace hpcp
