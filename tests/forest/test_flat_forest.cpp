/// FlatForest: the flattened SoA inference layout every prediction path
/// runs on. Each batched walk must agree bit for bit with the pointer-style
/// per-node walk of the trees it was built from.

#include "src/forest/flat_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
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

TEST(FlatForest, BatchedMeanMatchesPerTreeWalkBitwise) {
  const auto data = make_data(300, 4, 50);
  RandomForest forest({.num_trees = 25, .compute_oob = false});
  Rng rng(51);
  forest.fit(data.x, data.y, rng);

  const auto batched = forest.predict(data.x);
  ASSERT_EQ(batched.size(), data.x.rows());
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      acc += forest.tree(t).predict(data.x.row(r));
    }
    ASSERT_EQ(batched[r], acc / static_cast<double>(forest.num_trees()))
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
  RandomForest forest({.num_trees = 30, .compute_oob = false});
  Rng rng(55);
  forest.fit(data.x, data.y, rng);

  const auto row = data.x.row(7);
  const auto stats = forest.predict_stats(row);
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    const double p = forest.tree(t).predict(row);
    sum += p;
    sum_sq += p * p;
  }
  const double n = static_cast<double>(forest.num_trees());
  const double mean = sum / n;
  EXPECT_EQ(stats.mean, mean);
  EXPECT_NEAR(stats.stddev,
              std::sqrt(std::max(0.0, sum_sq / n - mean * mean)), 1e-12);
}

TEST(FlatForest, SubsetRowsMatchFullWalk) {
  const auto data = make_data(120, 3, 56);
  RandomForest forest({.num_trees = 10, .compute_oob = false});
  Rng rng(57);
  forest.fit(data.x, data.y, rng);

  const std::vector<std::size_t> rows{3, 17, 45, 46, 99, 119};
  std::vector<double> out(rows.size());
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    forest.flat().predict_tree_rows(t, data.x, rows, out);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(out[k], forest.tree(t).predict(data.x.row(rows[k])))
          << "tree " << t << " row " << rows[k];
    }
  }
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
