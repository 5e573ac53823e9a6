/// Golden regression tests pinning the registry store format as a
/// compatibility surface. Two tiny two-tenant stores are committed, and
/// each must keep opening — manifest bytes, archive section layout (names,
/// offsets, sizes, checksums), and the archived models' predictions (to
/// 1e-9) are all pinned:
///   - tests/golden/registry_v1/ holds forests as per-tree node records
///     (the "forest" tag). It is a read-only fixture for the legacy
///     decoder and is never re-blessed;
///   - tests/golden/registry_v2/ holds forests as packed flat arrays (the
///     "forest-flat" tag), the format every writer produces today.
/// A serializer or archive layout change that silently breaks
/// already-published stores fails here instead of in a customer's model
/// directory.
///
/// To *intentionally* re-bless the current store after a deliberate format
/// change (the workflow in EXPERIMENTS.md):
///   HPCP_BLESS_GOLDEN=1 ./build/tests/test_registry_golden
/// then commit the rewritten tests/golden/registry_v2/ tree with an
/// explanation — old stores will need re-publishing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/core/problem.hpp"
#include "src/core/two_level_model.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/registry/archive.hpp"
#include "src/registry/registry.hpp"

namespace hpcp::registry {
namespace {

constexpr double kTolerance = 1e-9;
constexpr const char* kGoldenTenants[] = {"default", "alt"};
/// Read-only fixture: forests archived as per-tree node records.
constexpr const char* kLegacyStore = "registry_v1";
/// What HPCP_BLESS_GOLDEN rewrites: forests archived as packed arrays.
constexpr const char* kCurrentStore = "registry_v2";

std::string store_root(const std::string& store) {
  return std::string(HPCP_GOLDEN_DIR) + "/" + store;
}

std::string predictions_path(const std::string& store) {
  return store_root(store) + "/predictions.json";
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool bless_mode() { return std::getenv("HPCP_BLESS_GOLDEN") != nullptr; }

/// The fixed probe grid every golden prediction is evaluated on.
ExtrapolationProblem golden_problem(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 16;
  const std::size_t d = 3;
  ExtrapolationProblem problem;
  problem.param_names = {"p0", "p1", "p2"};
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

TwoLevelModel golden_model(std::uint64_t seed) {
  TwoLevelOptions opts;
  opts.forest.num_trees = 8;
  TwoLevelModel model(opts);
  Rng rng(seed);
  model.fit_checked(golden_problem(seed), rng).value_or_throw();
  return model;
}

/// Tenant -> deterministic fit seed (distinct models per tenant).
std::uint64_t tenant_seed(const std::string& tenant) {
  return tenant == "default" ? 41 : 43;
}

/// Flat list of predictions for `model` over its own training configs at
/// the model's target scales — the numbers predictions.json pins.
std::vector<double> probe_predictions(const TwoLevelModel& model,
                                      std::uint64_t seed) {
  const ExtrapolationProblem problem = golden_problem(seed);
  std::vector<double> out;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto preds = model.predict(problem.train_configs.row(i), {});
    out.insert(out.end(), preds.begin(), preds.end());
  }
  return out;
}

void bless_store() {
  const std::string root = store_root(kCurrentStore);
  std::filesystem::remove_all(root);
  auto reg = Registry::open(root).value_or_throw();
  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\n  \"schema\": \"hpcp-golden-registry/1\",\n  \"tenants\": [\n";
  bool first_tenant = true;
  for (const char* tenant : kGoldenTenants) {
    const std::uint64_t seed = tenant_seed(tenant);
    const TwoLevelModel model = golden_model(seed);
    (void)reg.add_model(tenant, model).value_or_throw();
    const auto archive =
        ModelArchive::open(reg.version_path(tenant, 1)).value_or_throw();
    if (!first_tenant) json << ",\n";
    first_tenant = false;
    json << "    {\"tenant\": \"" << tenant << "\", \"sections\": [";
    bool first_section = true;
    for (const SectionInfo& s : archive.sections()) {
      if (!first_section) json << ", ";
      first_section = false;
      // Checksum as a decimal string: full 64-bit values do not survive
      // a round-trip through JSON doubles.
      json << "{\"name\": \"" << s.name << "\", \"offset\": " << s.offset
           << ", \"size\": " << s.size << ", \"checksum\": \"" << s.checksum
           << "\"}";
    }
    json << "],\n     \"predictions\": [";
    const auto preds = probe_predictions(model, seed);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      json << (i ? ", " : "") << preds[i];
    }
    json << "]}";
  }
  json << "\n  ]\n}\n";
  std::ofstream out(predictions_path(kCurrentStore));
  ASSERT_TRUE(out) << predictions_path(kCurrentStore);
  out << json.str();
}

/// The pins every committed store must keep: manifest bytes, section
/// layout, and predictions as blessed.
void expect_store_readable(const std::string& store) {
  SCOPED_TRACE(store);
  // The committed manifest is byte-stable (deterministic writer).
  auto reg = Registry::open(store_root(store)).value_or_throw();
  std::ifstream manifest(reg.manifest_path());
  ASSERT_TRUE(manifest) << "missing golden store — generate it with "
                           "HPCP_BLESS_GOLDEN=1";
  std::stringstream manifest_buf;
  manifest_buf << manifest.rdbuf();
  EXPECT_EQ(manifest_buf.str(),
            "{\"schema\":\"hpcp-registry/1\",\"tenants\":{"
            "\"alt\":{\"latest\":1,\"versions\":[1]},"
            "\"default\":{\"latest\":1,\"versions\":[1]}}}\n");

  std::ifstream golden(predictions_path(store));
  ASSERT_TRUE(golden) << "missing " << predictions_path(store);
  std::stringstream buf;
  buf << golden.rdbuf();
  const auto doc = obs::parse_json(buf.str());
  ASSERT_EQ(doc.at("schema").as_string(), "hpcp-golden-registry/1");
  const auto& tenants = doc.at("tenants").as_array();
  ASSERT_EQ(tenants.size(), 2u);

  for (const auto& entry : tenants) {
    const std::string tenant = entry.at("tenant").as_string();
    ASSERT_TRUE(reg.has_tenant(tenant)) << tenant;
    const auto archive = ModelArchive::open(reg.version_path(tenant, 1));
    ASSERT_TRUE(archive.has_value())
        << tenant << ": " << archive.error().to_string();
    EXPECT_EQ(archive->meta().tenant, tenant);
    EXPECT_EQ(archive->meta().version, 1u);

    // Section layout is pinned exactly: names, offsets, sizes, checksums.
    const auto& golden_sections = entry.at("sections").as_array();
    ASSERT_EQ(archive->sections().size(), golden_sections.size()) << tenant;
    for (std::size_t i = 0; i < golden_sections.size(); ++i) {
      const SectionInfo& got = archive->sections()[i];
      const auto& want = golden_sections[i];
      EXPECT_EQ(got.name, want.at("name").as_string()) << tenant;
      EXPECT_EQ(got.offset,
                static_cast<std::uint64_t>(want.at("offset").as_number()))
          << tenant << " section " << got.name;
      EXPECT_EQ(got.size,
                static_cast<std::uint64_t>(want.at("size").as_number()))
          << tenant << " section " << got.name;
      EXPECT_EQ(got.checksum, std::stoull(want.at("checksum").as_string()))
          << tenant << " section " << got.name;
    }

    // The committed archive still parses, and predicts what it predicted
    // the day it was blessed.
    const auto model = archive->load_model();
    ASSERT_TRUE(model.has_value())
        << tenant << ": " << model.error().to_string();
    const auto preds = probe_predictions(*model, tenant_seed(tenant));
    const auto& golden_preds = entry.at("predictions").as_array();
    ASSERT_EQ(preds.size(), golden_preds.size()) << tenant;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      EXPECT_NEAR(preds[i], golden_preds[i].as_number(), kTolerance)
          << tenant << " prediction " << i
          << " drifted from the committed golden value";
    }
  }
}

TEST(GoldenRegistry, CommittedStoreStaysReadable) {
  // The legacy store is read-only: bless mode checks it like any run.
  expect_store_readable(kLegacyStore);
}

TEST(GoldenRegistry, BlessedStoreStaysReadable) {
  if (bless_mode()) {
    bless_store();
    GTEST_SKIP() << "blessed " << store_root(kCurrentStore);
  }
  expect_store_readable(kCurrentStore);
}

/// Both stores hold the same fits, so the legacy decoder and the packed
/// reader must rebuild the same model: re-saved, each gives the bytes a
/// fresh fit writes, and both archives carry the same manifest.
TEST(GoldenRegistry, LegacyAndCurrentStoresLoadTheSameModel) {
  if (bless_mode()) GTEST_SKIP() << "bless handled by BlessedStoreStaysReadable";
  const auto saved = [](const TwoLevelModel& model) {
    std::ostringstream out(std::ios::binary);
    Serializer s(out);
    model.save(s);
    return out.str();
  };
  EXPECT_EQ(read_text(store_root(kLegacyStore) + "/MANIFEST.json"),
            read_text(store_root(kCurrentStore) + "/MANIFEST.json"));
  for (const char* tenant : kGoldenTenants) {
    const std::string fresh = saved(golden_model(tenant_seed(tenant)));
    for (const char* store : {kLegacyStore, kCurrentStore}) {
      const auto archive = ModelArchive::open(
          store_root(store) + "/" + tenant + "/1.hpcp");
      ASSERT_TRUE(archive.has_value()) << store << "/" << tenant;
      const auto model = archive->load_model();
      ASSERT_TRUE(model.has_value())
          << store << "/" << tenant << ": " << model.error().to_string();
      EXPECT_EQ(saved(*model), fresh) << store << "/" << tenant;
    }
  }
}

/// A freshly fit model must still produce the committed predictions: the
/// training pipeline itself is deterministic across releases, so the
/// committed archive and a from-scratch refit agree to tolerance.
TEST(GoldenRegistry, RefitReproducesCommittedPredictions) {
  if (bless_mode()) GTEST_SKIP() << "bless handled by BlessedStoreStaysReadable";
  for (const char* store : {kLegacyStore, kCurrentStore}) {
    SCOPED_TRACE(store);
    std::ifstream golden(predictions_path(store));
    ASSERT_TRUE(golden) << "missing " << predictions_path(store);
    std::stringstream buf;
    buf << golden.rdbuf();
    const auto doc = obs::parse_json(buf.str());
    for (const auto& entry : doc.at("tenants").as_array()) {
      const std::string tenant = entry.at("tenant").as_string();
      const std::uint64_t seed = tenant_seed(tenant);
      const auto preds = probe_predictions(golden_model(seed), seed);
      const auto& golden_preds = entry.at("predictions").as_array();
      ASSERT_EQ(preds.size(), golden_preds.size()) << tenant;
      for (std::size_t i = 0; i < preds.size(); ++i) {
        EXPECT_NEAR(preds[i], golden_preds[i].as_number(), kTolerance)
            << tenant << " refit prediction " << i;
      }
    }
  }
}

}  // namespace
}  // namespace hpcp::registry
