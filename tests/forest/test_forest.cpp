#include "src/forest/random_forest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/common/metrics.hpp"
#include "src/common/rng.hpp"

namespace hpcp {
namespace {

struct Data {
  Matrix x;
  std::vector<double> y;
};

Data make_data(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  Data data;
  data.x = Matrix(n, 3);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) data.x(i, j) = rng.uniform(0.0, 1.0);
    data.y[i] = 5.0 * data.x(i, 0) + std::sin(6.0 * data.x(i, 1)) +
                (noise > 0 ? rng.normal(0.0, noise) : 0.0);
  }
  return data;
}

TEST(Forest, LowTrainError) {
  const auto data = make_data(300, 0.0, 1);
  RandomForest forest({.num_trees = 50});
  Rng rng(2);
  forest.fit(data.x, data.y, rng);
  const auto pred = forest.predict(data.x);
  EXPECT_LT(rmse(data.y, pred), 0.25);
}

TEST(Forest, GeneralisesToHeldOut) {
  const auto train = make_data(500, 0.05, 3);
  const auto test = make_data(100, 0.05, 4);
  RandomForest forest({.num_trees = 100});
  Rng rng(5);
  forest.fit(train.x, train.y, rng);
  const auto pred = forest.predict(test.x);
  EXPECT_GT(r_squared(test.y, pred), 0.9);
}

TEST(Forest, DeterministicGivenSeed) {
  const auto data = make_data(150, 0.1, 6);
  RandomForest a({.num_trees = 20}), b({.num_trees = 20});
  Rng ra(7), rb(7);
  a.fit(data.x, data.y, ra);
  b.fit(data.x, data.y, rb);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.predict(data.x.row(i)), b.predict(data.x.row(i)));
  }
}

TEST(Forest, DeterministicAcrossPoolSizes) {
  const auto data = make_data(100, 0.1, 8);
  ThreadPool pool1(1), pool4(4);
  RandomForest a({.num_trees = 16}), b({.num_trees = 16});
  Rng ra(9), rb(9);
  a.fit(data.x, data.y, ra, &pool1);
  b.fit(data.x, data.y, rb, &pool4);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.predict(data.x.row(i)), b.predict(data.x.row(i)));
  }
}

TEST(Forest, FitAndOobBitIdenticalAcrossThreadCounts) {
  // n > exact_cutoff so the histogram engine (shared bins, subtraction
  // trick) runs under real multithreading; the whole fit — predictions,
  // importances, and the parallel OOB pass merged in tree order — must be
  // bit-identical for the global pool, one worker, and four workers.
  const auto data = make_data(600, 0.1, 24);
  ThreadPool pool1(1), pool4(4);
  RandomForest a({.num_trees = 24}), b({.num_trees = 24}),
      c({.num_trees = 24});
  Rng ra(25), rb(25), rc(25);
  a.fit(data.x, data.y, ra);  // global pool
  b.fit(data.x, data.y, rb, &pool1);
  c.fit(data.x, data.y, rc, &pool4);

  const auto pa = a.predict(data.x);
  const auto pb = b.predict(data.x);
  const auto pc = c.predict(data.x);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "row " << i;
    ASSERT_EQ(pa[i], pc[i]) << "row " << i;
  }

  const auto ia = a.feature_importance();
  const auto ib = b.feature_importance();
  const auto ic = c.feature_importance();
  for (std::size_t f = 0; f < ia.size(); ++f) {
    ASSERT_EQ(ia[f], ib[f]) << "feature " << f;
    ASSERT_EQ(ia[f], ic[f]) << "feature " << f;
  }

  ASSERT_TRUE(a.oob_mse().has_value());
  ASSERT_TRUE(b.oob_mse().has_value());
  ASSERT_TRUE(c.oob_mse().has_value());
  EXPECT_EQ(*a.oob_mse(), *b.oob_mse());
  EXPECT_EQ(*a.oob_mse(), *c.oob_mse());
}

TEST(Forest, OobErrorAvailableAndSane) {
  const auto data = make_data(400, 0.1, 10);
  RandomForest forest({.num_trees = 100});
  Rng rng(11);
  forest.fit(data.x, data.y, rng);
  ASSERT_TRUE(forest.oob_mse().has_value());
  EXPECT_GT(*forest.oob_mse(), 0.0);
  EXPECT_LT(*forest.oob_mse(), 1.0);
}

TEST(Forest, NoOobWithoutBootstrap) {
  const auto data = make_data(50, 0.0, 12);
  RandomForest forest({.num_trees = 10, .bootstrap = false});
  Rng rng(13);
  forest.fit(data.x, data.y, rng);
  EXPECT_FALSE(forest.oob_mse().has_value());
}

TEST(Forest, PredictStatsSpreadIsNonNegative) {
  const auto data = make_data(120, 0.2, 14);
  RandomForest forest({.num_trees = 30});
  Rng rng(15);
  forest.fit(data.x, data.y, rng);
  const auto stats = forest.predict_stats(data.x.row(0));
  EXPECT_GE(stats.stddev, 0.0);
  EXPECT_NEAR(stats.mean, forest.predict(data.x.row(0)), 1e-12);
}

TEST(Forest, FeatureImportanceNormalised) {
  const auto data = make_data(300, 0.0, 16);
  RandomForest forest({.num_trees = 30});
  Rng rng(17);
  forest.fit(data.x, data.y, rng);
  const auto imp = forest.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  const double sum = std::accumulate(imp.begin(), imp.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Feature 0 (strongest signal) dominates; feature 2 is noise.
  EXPECT_GT(imp[0], imp[2]);
}

TEST(Forest, WarmFitRefitsLeavesAndKeepsImportance) {
  const auto data = make_data(200, 0.1, 21);
  RandomForest prior({.num_trees = 15});
  Rng rng(22);
  prior.fit(data.x, data.y, rng);
  std::vector<double> y = data.y;
  for (auto& v : y) v = 3.0 * v - 1.0;

  RandomForest warm({.num_trees = 15});
  ASSERT_TRUE(warm.warm_fit(prior, data.x, y));
  EXPECT_EQ(warm.feature_importance(), prior.feature_importance());
  EXPECT_FALSE(warm.oob_mse().has_value());
  // Same structure, leaves refit on the new targets.
  const auto refit = prior.flat().refit_leaves(data.x, y);
  ASSERT_TRUE(refit.has_value());
  EXPECT_EQ(warm.predict(data.x), refit->predict_mean(data.x));
  EXPECT_LT(rmse(y, warm.predict(data.x)), rmse(y, prior.predict(data.x)));

  // Two rows leave some leaf empty, and a tree-count mismatch is no prior
  // at all: each declines and leaves the forest as it was.
  const Matrix two = data.x.select_rows(std::vector<std::size_t>{0, 1});
  EXPECT_FALSE(warm.warm_fit(prior, two, std::vector<double>{1.0, 2.0}));
  RandomForest other_count({.num_trees = 14});
  EXPECT_FALSE(other_count.warm_fit(prior, data.x, y));
  EXPECT_FALSE(other_count.fitted());
  EXPECT_EQ(warm.predict(data.x), refit->predict_mean(data.x));
}

TEST(Forest, PredictBeforeFitThrows) {
  const RandomForest forest;
  const std::vector<double> x{1.0};
  EXPECT_THROW((void)forest.predict(x), std::invalid_argument);
}

TEST(Forest, RejectsEmptyData) {
  RandomForest forest;
  Rng rng(18);
  const Matrix x(0, 2);
  const std::vector<double> y;
  EXPECT_THROW(forest.fit(x, y, rng), std::invalid_argument);
}

TEST(Forest, RejectsZeroTrees) {
  RandomForest forest({.num_trees = 0});
  const auto data = make_data(10, 0.0, 19);
  Rng rng(20);
  EXPECT_THROW(forest.fit(data.x, data.y, rng), std::invalid_argument);
}

class ForestSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeSweep, MoreTreesNeverMuchWorse) {
  const auto train = make_data(300, 0.2, 21);
  const auto test = make_data(80, 0.2, 22);
  RandomForest forest({.num_trees = GetParam()});
  Rng rng(23);
  forest.fit(train.x, train.y, rng);
  const auto pred = forest.predict(test.x);
  EXPECT_GT(r_squared(test.y, pred), 0.75);
}

INSTANTIATE_TEST_SUITE_P(Trees, ForestSizeSweep,
                         ::testing::Values(5, 20, 50, 150));

}  // namespace
}  // namespace hpcp
