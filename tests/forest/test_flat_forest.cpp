/// FlatForest: the flattened inference layout every prediction path runs
/// on. Each batched walk must agree bit for bit with the per-node walk
/// (RegressionTree::predict) of the standalone trees it was built from.

#include "src/forest/flat_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/forest/gbm.hpp"
#include "src/forest/random_forest.hpp"

namespace hpcp {
namespace {

struct Data {
  Matrix x;
  std::vector<double> y;
};

Data make_data(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Data data;
  data.x = Matrix(n, d);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      data.x(i, j) = rng.uniform(-2.0, 2.0);
      acc += std::sin(data.x(i, j)) * (static_cast<double>(j) + 1.0);
    }
    data.y[i] = acc + rng.normal(0.0, 0.1);
  }
  return data;
}

/// Standalone trees fitted as a forest fits them (one bootstrap sample
/// each), and the FlatForest packed from those same trees.
struct Fitted {
  std::vector<RegressionTree> trees;
  FlatForest flat;
};

Fitted fit_trees(const Data& data, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  Fitted fitted;
  std::vector<std::vector<RegressionTree::Node>> nodes;
  for (std::size_t t = 0; t < count; ++t) {
    Rng tree_rng = rng.fork();
    const auto sample = tree_rng.bootstrap_indices(data.x.rows());
    RegressionTree& tree = fitted.trees.emplace_back();
    tree.fit(data.x, data.y, sample, TreeOptions{}, tree_rng);
    nodes.push_back(tree.nodes());
  }
  fitted.flat = FlatForest::build(nodes);
  return fitted;
}

TEST(FlatForest, BatchedMeanMatchesPerTreeWalkBitwise) {
  const auto data = make_data(300, 4, 50);
  const Fitted fitted = fit_trees(data, 25, 51);

  const auto batched = fitted.flat.predict_mean(data.x);
  ASSERT_EQ(batched.size(), data.x.rows());
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    double acc = 0.0;
    for (const RegressionTree& tree : fitted.trees) {
      acc += tree.predict(data.x.row(r));
    }
    ASSERT_EQ(batched[r], acc / static_cast<double>(fitted.trees.size()))
        << "row " << r;
  }
}

TEST(FlatForest, ScalarPredictMatchesBatched) {
  const auto data = make_data(200, 3, 52);
  RandomForest forest({.num_trees = 20, .compute_oob = false});
  Rng rng(53);
  forest.fit(data.x, data.y, rng);
  const auto batched = forest.predict(data.x);
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    EXPECT_EQ(forest.predict(data.x.row(r)), batched[r]);
  }
}

TEST(FlatForest, SingleRowEntryPointsEqualBatchedRowsBitwise) {
  // predict(span) and predict_stats are 1-row calls of the slot walk;
  // they must reproduce the batched walk of any window holding the row,
  // whole-forest block (n * 100 <= 4096) or tree by tree (n = 41).
  const auto data = make_data(200, 3, 64);
  RandomForest forest({.num_trees = 100, .compute_oob = false});
  Rng rng(65);
  forest.fit(data.x, data.y, rng);
  const double trees = static_cast<double>(forest.num_trees());
  for (std::size_t n : {1u, 2u, 3u, 7u, 40u, 41u}) {
    Matrix x(n, data.x.cols());
    for (std::size_t r = 0; r < n; ++r) x.set_row(r, data.x.row(r * 3));
    const auto batched = forest.predict(x);
    std::vector<double> sum(n), sum_sq(n);
    forest.flat().predict_moments(x, sum, sum_sq);
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(forest.predict(x.row(r))),
                std::bit_cast<std::uint64_t>(batched[r]))
          << "n=" << n << " row " << r;
      const auto stats = forest.predict_stats(x.row(r));
      const double mean = sum[r] / trees;
      const double sd =
          std::sqrt(std::max(0.0, sum_sq[r] / trees - mean * mean));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(stats.mean),
                std::bit_cast<std::uint64_t>(mean))
          << "n=" << n << " row " << r;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(stats.stddev),
                std::bit_cast<std::uint64_t>(sd))
          << "n=" << n << " row " << r;
    }
  }
}

TEST(FlatForest, PredictStatsConsistentWithPerTreeSpread) {
  const auto data = make_data(150, 3, 54);
  const Fitted fitted = fit_trees(data, 30, 55);

  Matrix x(1, data.x.cols());
  x.set_row(0, data.x.row(7));
  double flat_sum = 0.0, flat_sq = 0.0;
  fitted.flat.predict_moments(x, {&flat_sum, 1}, {&flat_sq, 1});
  double sum = 0.0, sum_sq = 0.0;
  for (const RegressionTree& tree : fitted.trees) {
    const double p = tree.predict(x.row(0));
    sum += p;
    sum_sq += p * p;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(flat_sum),
            std::bit_cast<std::uint64_t>(sum));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(flat_sq),
            std::bit_cast<std::uint64_t>(sum_sq));
}

TEST(FlatForest, SubsetRowsMatchFullWalk) {
  const auto data = make_data(120, 3, 56);
  const Fitted fitted = fit_trees(data, 10, 57);

  const std::vector<std::size_t> rows{3, 17, 45, 46, 99, 119};
  std::vector<double> out(rows.size());
  for (std::size_t t = 0; t < fitted.trees.size(); ++t) {
    fitted.flat.predict_tree_rows(t, data.x, rows, out);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(out[k], fitted.trees[t].predict(data.x.row(rows[k])))
          << "tree " << t << " row " << rows[k];
    }
  }
}

/// The node-based warm refit the flat one replaces: every node's value
/// becomes the mean target of the rows routed through it, summed in row
/// order; nullopt when some leaf receives no rows.
std::optional<std::vector<RegressionTree::Node>> refit_nodes(
    std::vector<RegressionTree::Node> nodes, const Matrix& x,
    std::span<const double> y) {
  std::vector<double> sum(nodes.size(), 0.0);
  std::vector<std::size_t> count(nodes.size(), 0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    std::size_t node = 0;
    for (;;) {
      sum[node] += y[r];
      ++count[node];
      const RegressionTree::Node& cur = nodes[node];
      if (cur.left < 0) break;
      node = static_cast<std::size_t>(
          x(r, static_cast<std::size_t>(cur.feature)) <= cur.threshold
              ? cur.left
              : cur.right);
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].left < 0 && count[i] == 0) return std::nullopt;
    if (count[i] > 0) nodes[i].value = sum[i] / static_cast<double>(count[i]);
  }
  return nodes;
}

void expect_same_nodes(const FlatForest& a, const FlatForest& b) {
  ASSERT_EQ(a.roots(), b.roots());
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.nodes()[i].threshold),
              std::bit_cast<std::uint64_t>(b.nodes()[i].threshold))
        << "node " << i;
    ASSERT_EQ(a.nodes()[i].feature, b.nodes()[i].feature) << "node " << i;
    ASSERT_EQ(a.nodes()[i].left, b.nodes()[i].left) << "node " << i;
  }
}

TEST(FlatForest, RefitLeavesMatchesNodeBasedRefitBitwise) {
  const auto data = make_data(200, 3, 66);
  const Fitted fitted = fit_trees(data, 12, 67);
  // New targets over the same rows: every leaf still receives the rows of
  // its bootstrap sample, so no leaf goes empty.
  std::vector<double> y = data.y;
  for (auto& v : y) v = 2.0 * v + std::sin(v);

  std::vector<std::vector<RegressionTree::Node>> reference;
  for (const RegressionTree& tree : fitted.trees) {
    auto refit = refit_nodes(tree.nodes(), data.x, y);
    ASSERT_TRUE(refit.has_value());
    reference.push_back(std::move(*refit));
  }
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    const auto refit = fitted.flat.refit_leaves(data.x, y, &pool);
    ASSERT_TRUE(refit.has_value()) << threads << " threads";
    expect_same_nodes(*refit, FlatForest::build(reference));
  }
}

TEST(FlatForest, RefitLeavesFailsWhenALeafGetsNoRows) {
  const auto data = make_data(200, 3, 68);
  const Fitted fitted = fit_trees(data, 4, 69);
  // Two rows cannot reach every leaf of a tree grown on 200.
  const Matrix x = data.x.select_rows(std::vector<std::size_t>{0, 1});
  const std::vector<double> y{1.0, 2.0};
  for (const RegressionTree& tree : fitted.trees) {
    EXPECT_FALSE(refit_nodes(tree.nodes(), x, y).has_value());
  }
  EXPECT_FALSE(fitted.flat.refit_leaves(x, y).has_value());
}

TEST(FlatForest, RejectsNarrowFeatureVector) {
  const auto data = make_data(100, 4, 58);
  RandomForest forest({.num_trees = 5, .compute_oob = false});
  Rng rng(59);
  forest.fit(data.x, data.y, rng);
  const std::vector<double> narrow{1.0, 2.0};
  EXPECT_THROW((void)forest.predict(narrow), std::invalid_argument);
}

TEST(FlatForest, GbmBatchedMatchesScalar) {
  const auto data = make_data(250, 3, 60);
  GradientBoostedTrees gbm({.num_rounds = 40});
  Rng rng(61);
  gbm.fit(data.x, data.y, rng);

  const auto batched = gbm.predict(data.x);
  ASSERT_EQ(batched.size(), data.x.rows());
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    EXPECT_NEAR(batched[r], gbm.predict(data.x.row(r)), 1e-12);
  }
}

TEST(FlatForest, GbmStagedPredictEndsAtFullModel) {
  const auto data = make_data(180, 3, 62);
  GradientBoostedTrees gbm({.num_rounds = 30});
  Rng rng(63);
  gbm.fit(data.x, data.y, rng);

  const Matrix staged = gbm.staged_predict(data.x, /*stride=*/7);
  // ceil(30 / 7) = 5 snapshots; the last one is the complete ensemble.
  ASSERT_EQ(staged.rows(), 5u);
  ASSERT_EQ(staged.cols(), data.x.rows());
  const auto full = gbm.predict(data.x);
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    EXPECT_EQ(staged(staged.rows() - 1, r), full[r]) << "row " << r;
  }
  // Training error is non-increasing along the staged snapshots here.
  std::vector<double> sse(staged.rows(), 0.0);
  for (std::size_t s = 0; s < staged.rows(); ++s) {
    for (std::size_t r = 0; r < data.x.rows(); ++r) {
      const double e = staged(s, r) - data.y[r];
      sse[s] += e * e;
    }
  }
  for (std::size_t s = 1; s < sse.size(); ++s) {
    EXPECT_LE(sse[s], sse[s - 1] * 1.05) << "stage " << s;
  }
}

}  // namespace
}  // namespace hpcp
