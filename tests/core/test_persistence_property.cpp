/// Property test of the model codec over many randomly generated training
/// histories: the field graph that `TwoLevelModel::save(Serializer&)`
/// writes must load back through `load(Deserializer&)` into a model that
/// predicts bitwise-identically, consumes every byte, and re-saves to the
/// same bytes. The archive around the codec, and adversarial files, are
/// covered by tests/registry/test_archive_property.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/core/problem.hpp"
#include "src/core/two_level_model.hpp"

namespace hpcp {
namespace {

constexpr std::size_t kNumHistories = 50;

/// A random but valid training history: n configurations with random
/// parameters and positive, roughly-decaying runtime curves over the small
/// scales. Deliberately messier than the simulator's output — persistence
/// must survive whatever a fit accepts.
ExtrapolationProblem random_problem(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 12 + rng.uniform_index(28);   // 12..39 configs
  const std::size_t d = 2 + rng.uniform_index(3);     // 2..4 parameters
  ExtrapolationProblem problem;
  for (std::size_t j = 0; j < d; ++j) {
    problem.param_names.push_back("p" + std::to_string(j));
  }
  problem.small_scales = {1, 2, 4, 8};
  problem.target_scales = {16, 32};
  problem.train_configs = Matrix(n, d);
  problem.train_small_times = Matrix(n, problem.small_scales.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      problem.train_configs(i, j) = rng.uniform(1.0, 100.0);
    }
    const double base = rng.uniform(0.5, 50.0);
    const double serial_frac = rng.uniform(0.05, 0.9);
    for (std::size_t s = 0; s < problem.small_scales.size(); ++s) {
      const auto p = static_cast<double>(problem.small_scales[s]);
      const double amdahl = serial_frac + (1.0 - serial_frac) / p;
      problem.train_small_times(i, s) =
          base * amdahl * rng.lognormal_median(1.0, 0.1);
    }
  }
  return problem;
}

/// Small forests keep 50 fits fast; the serialization paths exercised are
/// identical to full-size models.
TwoLevelModel fit_model(const ExtrapolationProblem& problem,
                        std::uint64_t seed) {
  TwoLevelOptions opts;
  opts.forest.num_trees = 10;
  TwoLevelModel model(opts);
  Rng rng(seed);
  model.fit_checked(problem, rng).value_or_throw();
  return model;
}

std::string save_bytes(const TwoLevelModel& model) {
  std::ostringstream out(std::ios::binary);
  Serializer s(out);
  model.save(s);
  return out.str();
}

TEST(PersistenceProperty, RoundTripPredictsBitwiseIdentically) {
  for (std::uint64_t seed = 1; seed <= kNumHistories; ++seed) {
    const ExtrapolationProblem problem = random_problem(seed);
    const TwoLevelModel model = fit_model(problem, seed);

    const std::string bytes = save_bytes(model);
    Deserializer d(reinterpret_cast<const unsigned char*>(bytes.data()),
                   bytes.size());
    const TwoLevelModel loaded = TwoLevelModel::load(d);
    ASSERT_EQ(d.consumed(), bytes.size()) << "seed " << seed;
    ASSERT_EQ(save_bytes(loaded), bytes) << "seed " << seed;

    for (std::size_t i = 0; i < problem.num_configs(); ++i) {
      const auto a = model.predict(problem.train_configs.row(i), {});
      const auto b = loaded.predict(problem.train_configs.row(i), {});
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t t = 0; t < a.size(); ++t) {
        // Exact double comparison — bitwise for the finite values a
        // prediction must be.
        ASSERT_EQ(a[t], b[t])
            << "seed " << seed << " config " << i << " target " << t;
      }
    }
  }
}

}  // namespace
}  // namespace hpcp
