/// Round-trip tests of model persistence: the codec must carry every value
/// bit-exactly, and a loaded model must reproduce the original's
/// predictions bit-for-bit. Adversarial archive files are covered by
/// tests/registry/test_archive_property.cpp.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "src/common/serialize.hpp"
#include "src/core/experiment.hpp"
#include "src/core/two_level_model.hpp"
#include "src/registry/archive.hpp"

namespace hpcp {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.app_name = "minimd";
  cfg.num_train = 60;
  cfg.num_test = 8;
  cfg.seed = 101;
  return cfg;
}

/// The bytes `save` writes through a Serializer.
template <typename Save>
std::string encode(const Save& save) {
  std::ostringstream out(std::ios::binary);
  Serializer s(out);
  save(s);
  return out.str();
}

/// A reader over `bytes`, which must outlive it.
Deserializer reader(const std::string& bytes) {
  return Deserializer(reinterpret_cast<const unsigned char*>(bytes.data()),
                      bytes.size());
}

TEST(Serialize, PrimitiveRoundTrip) {
  const std::string bytes = encode([](Serializer& s) {
    s.tag("test");
    s.write(3.14159265358979);
    s.write(std::size_t{42});
    s.write(std::int64_t{-7});
    s.write(true);
    s.write(std::string("hello world"));
    s.write(std::vector<double>{1.5, -2.5});
    s.write(std::vector<std::size_t>{1, 2, 3});
    s.write(std::vector<std::string>{"a b", ""});
  });

  Deserializer d = reader(bytes);
  d.expect_tag("test");
  EXPECT_EQ(d.read_double(), 3.14159265358979);
  EXPECT_EQ(d.read_size(), 42u);
  EXPECT_EQ(d.read_int(), -7);
  EXPECT_TRUE(d.read_bool());
  EXPECT_EQ(d.read_string(), "hello world");
  EXPECT_EQ(d.read_doubles(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(d.read_sizes(), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(d.read_strings(), (std::vector<std::string>{"a b", ""}));
  EXPECT_EQ(d.consumed(), bytes.size());
}

TEST(Serialize, DoublesAreBitExact) {
  const std::vector<double> tricky = {
      0.1 + 0.2,  // not representable exactly in decimal
      -0.0,
      std::bit_cast<double>(std::uint64_t{0x7ff8'0000'dead'beefULL}),  // NaN
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  const std::string bytes = encode([&](Serializer& s) {
    for (const double v : tricky) s.write(v);
    s.write(tricky);
  });
  Deserializer d = reader(bytes);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const double want : tricky) {
    EXPECT_EQ(bits(d.read_double()), bits(want));
  }
  const std::vector<double> block = d.read_doubles();
  ASSERT_EQ(block.size(), tricky.size());
  for (std::size_t i = 0; i < tricky.size(); ++i) {
    EXPECT_EQ(bits(block[i]), bits(tricky[i])) << "element " << i;
  }
}

TEST(Serialize, WrongTagThrows) {
  const std::string bytes = encode([](Serializer& s) { s.tag("alpha"); });
  Deserializer d = reader(bytes);
  EXPECT_THROW(d.expect_tag("beta"), std::runtime_error);
}

TEST(Serialize, TruncationThrows) {
  const std::string bytes = encode([](Serializer& s) {
    s.tag("matrix");
    s.write(std::size_t{2});
    s.write(std::vector<double>{1.0, 2.0, 3.0});
  });
  {
    // Every value is present once; one more read runs off the end.
    Deserializer d = reader(bytes);
    d.expect_tag("matrix");
    EXPECT_EQ(d.read_size(), 2u);
    EXPECT_EQ(d.read_doubles().size(), 3u);
    EXPECT_THROW((void)d.read_size(), std::runtime_error);
  }
  // Cut inside the double block: the count promises more than remains.
  const std::string cut = bytes.substr(0, bytes.size() - 1);
  Deserializer d = reader(cut);
  d.expect_tag("matrix");
  EXPECT_EQ(d.read_size(), 2u);
  EXPECT_THROW((void)d.read_doubles(), std::runtime_error);
}

TEST(Persistence, MatrixRoundTrip) {
  const Matrix m{{1.5, -2.25}, {0.0, 1e-300}};
  const std::string bytes = encode([&](Serializer& s) { m.save(s); });
  Deserializer d = reader(bytes);
  EXPECT_EQ(Matrix::load(d), m);
}

TEST(Persistence, ForestPredictionsIdenticalAfterRoundTrip) {
  const auto exp = make_experiment(small_config());
  RandomForest forest({.num_trees = 20});
  Rng rng(1);
  const auto y = exp.problem.train_small_times.column(0);
  forest.fit(exp.problem.train_configs, y, rng);

  const std::string bytes = encode([&](Serializer& s) { forest.save(s); });
  Deserializer d = reader(bytes);
  const RandomForest back = RandomForest::load(d);
  EXPECT_EQ(d.consumed(), bytes.size());
  EXPECT_EQ(back.num_trees(), forest.num_trees());
  EXPECT_EQ(back.oob_mse(), forest.oob_mse());
  EXPECT_EQ(back.feature_importance(), forest.feature_importance());
  EXPECT_EQ(encode([&](Serializer& s) { back.save(s); }), bytes);
  for (std::size_t i = 0; i < exp.test.size(); ++i) {
    EXPECT_EQ(back.predict(exp.test.configs.row(i)),
              forest.predict(exp.test.configs.row(i)));
  }
}

TwoLevelModel round_trip(const TwoLevelModel& model) {
  const std::string bytes = encode([&](Serializer& s) { model.save(s); });
  Deserializer d = reader(bytes);
  TwoLevelModel back = TwoLevelModel::load(d);
  EXPECT_EQ(d.consumed(), bytes.size());
  return back;
}

TEST(Persistence, TwoLevelModelRoundTripBitExact) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(2);
  model.fit(exp.problem, rng);
  model.calibrate(exp.test.configs.row(0), 256,
                  exp.test.target_times(0, 3));

  const TwoLevelModel back = round_trip(model);
  EXPECT_EQ(back.name(), model.name());
  EXPECT_EQ(back.num_calibration_points(), 1u);
  EXPECT_EQ(back.extrapolation().num_clusters(),
            model.extrapolation().num_clusters());
  for (std::size_t i = 0; i < exp.test.size(); ++i) {
    const auto a = model.predict(exp.test.configs.row(i), {});
    const auto b = back.predict(exp.test.configs.row(i), {});
    for (std::size_t t = 0; t < a.size(); ++t) {
      EXPECT_EQ(a[t], b[t]) << "config " << i << " target " << t;
    }
    // Uncertainty intervals are seeded per input -> also identical.
    const auto ua = model.predict_with_uncertainty(exp.test.configs.row(i));
    const auto ub = back.predict_with_uncertainty(exp.test.configs.row(i));
    for (std::size_t t = 0; t < ua.size(); ++t) {
      EXPECT_EQ(ua[t].lower, ub[t].lower);
      EXPECT_EQ(ua[t].upper, ub[t].upper);
    }
  }
}

TEST(Persistence, FileRoundTrip) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(3);
  model.fit(exp.problem, rng);
  const std::string path = ::testing::TempDir() + "/hpcp_model.hpcp";
  registry::write_model_archive(path, model, {}).value_or_throw();
  const TwoLevelModel back = registry::ModelArchive::open(path)
                                 .value_or_throw()
                                 .load_model()
                                 .value_or_throw();
  const auto a = model.predict(exp.test.configs.row(0), {});
  const auto b = back.predict(exp.test.configs.row(0), {});
  for (std::size_t t = 0; t < a.size(); ++t) EXPECT_EQ(a[t], b[t]);
}

TEST(Persistence, SingleTaskModeRoundTrips) {
  const auto exp = make_experiment(small_config());
  TwoLevelOptions opts;
  opts.extrapolation.multitask = false;
  TwoLevelModel model(opts);
  Rng rng(4);
  model.fit(exp.problem, rng);
  const TwoLevelModel back = round_trip(model);
  const auto a = model.predict(exp.test.configs.row(1), {});
  const auto b = back.predict(exp.test.configs.row(1), {});
  for (std::size_t t = 0; t < a.size(); ++t) EXPECT_EQ(a[t], b[t]);
}

TEST(Persistence, UnfittedModelRefusesToSave) {
  const TwoLevelModel model;
  std::ostringstream out;
  Serializer s(out);
  EXPECT_THROW(model.save(s), std::invalid_argument);
}

TEST(Persistence, MissingFileThrows) {
  EXPECT_THROW(
      (void)registry::ModelArchive::open("/nonexistent/model").value_or_throw(),
      std::runtime_error);
}

}  // namespace
}  // namespace hpcp
