/// Property tests of the sectioned `.hpcp` archive, the only on-disk model
/// format, over many randomly generated models: for every seed, the bare
/// codec stream and the archive round trip must predict bitwise-identically
/// to the in-memory model, and the archive's model section must be exactly
/// the codec stream. Adversarial files — truncated anywhere, bit-flipped anywhere, a
/// section table pointing past EOF, garbage or text in place of an
/// archive — must come back from open()/load_model() as typed BadData/Io
/// errors, never as a crash, hang, or out-of-bounds read (this file runs
/// under the ASan/UBSan CI legs).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/core/problem.hpp"
#include "src/core/two_level_model.hpp"
#include "src/registry/archive.hpp"

namespace hpcp::registry {
namespace {

constexpr std::size_t kNumModels = 50;

/// A random but valid training history: n configurations with random
/// parameters and positive, roughly-decaying runtime curves over the small
/// scales. Deliberately messier than simulator output — persistence must
/// survive whatever a fit accepts.
ExtrapolationProblem random_problem(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 12 + rng.uniform_index(28);  // 12..39 configs
  const std::size_t d = 2 + rng.uniform_index(3);    // 2..4 parameters
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

/// Small forests keep 50 fits fast; the codec paths exercised are
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

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(ArchiveProperty, LegacyAndBinaryRoundTripsPredictIdentically) {
  const std::string path = temp_path("prop_model.hpcp");
  for (std::uint64_t seed = 1; seed <= kNumModels; ++seed) {
    const ExtrapolationProblem problem = random_problem(seed);
    const TwoLevelModel model = fit_model(problem, seed);

    // Route 1: the bare field-graph stream that save(Serializer&) writes,
    // with no archive around it — the stream route models were persisted
    // through before the archive existed.
    std::ostringstream stream(std::ios::binary);
    {
      Serializer s(stream);
      model.save(s);
    }
    const std::string legacy = stream.str();
    Deserializer d(reinterpret_cast<const unsigned char*>(legacy.data()),
                   legacy.size());
    const TwoLevelModel via_stream = TwoLevelModel::load(d);
    ASSERT_EQ(d.consumed(), legacy.size()) << "seed " << seed;

    // Route 2: sectioned binary archive through the mmap open path.
    ArchiveMeta meta;
    meta.tenant = "prop";
    meta.version = seed;
    ASSERT_TRUE(write_model_archive(path, model, meta).has_value())
        << "seed " << seed;
    const auto archive = ModelArchive::open(path);
    ASSERT_TRUE(archive.has_value())
        << "seed " << seed << ": " << archive.error().to_string();
    EXPECT_EQ(archive->meta().tenant, "prop");
    EXPECT_EQ(archive->meta().version, seed);
    const auto via_archive = archive->load_model();
    ASSERT_TRUE(via_archive.has_value())
        << "seed " << seed << ": " << via_archive.error().to_string();

    // The archive adds framing only: its model section is the stream.
    const std::string file = read_file(path);
    bool found = false;
    for (const SectionInfo& section : archive->sections()) {
      if (section.name != "model") continue;
      found = true;
      ASSERT_EQ(file.substr(section.offset, section.size), legacy)
          << "seed " << seed;
    }
    ASSERT_TRUE(found) << "seed " << seed;

    for (std::size_t i = 0; i < problem.num_configs(); ++i) {
      const auto want = model.predict(problem.train_configs.row(i), {});
      const auto a = via_stream.predict(problem.train_configs.row(i), {});
      const auto b = via_archive->predict(problem.train_configs.row(i), {});
      ASSERT_EQ(want.size(), a.size());
      ASSERT_EQ(want.size(), b.size());
      for (std::size_t t = 0; t < want.size(); ++t) {
        // Exact double comparison — the two routes must agree bitwise.
        ASSERT_EQ(want[t], a[t])
            << "seed " << seed << " config " << i << " target " << t;
        ASSERT_EQ(want[t], b[t])
            << "seed " << seed << " config " << i << " target " << t;
      }
    }
  }
}

TEST(ArchiveProperty, TruncationAnywhereIsATypedError) {
  const ExtrapolationProblem problem = random_problem(7);
  const TwoLevelModel model = fit_model(problem, 7);
  const std::string path = temp_path("prop_trunc.hpcp");
  ASSERT_TRUE(write_model_archive(path, model, {}).has_value());
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 200u);

  const std::string cut_path = temp_path("prop_trunc_cut.hpcp");
  // Cut at 32 points spread over the whole file: inside the magic, the
  // header, the section table, and both payloads ("short map" included).
  for (std::size_t k = 0; k < 32; ++k) {
    const std::size_t len = (full.size() - 1) * k / 31;
    write_file(cut_path, full.substr(0, len));
    const auto archive = ModelArchive::open(cut_path);
    if (!archive.has_value()) {
      EXPECT_TRUE(archive.error().code == ErrorCode::BadData ||
                  archive.error().code == ErrorCode::Io)
          << "cut to " << len << " bytes: unexpected code";
      continue;
    }
    // Header + table may still be intact; the payload parse must then
    // catch the loss via checksum or bounds.
    const auto loaded = archive->load_model();
    ASSERT_FALSE(loaded.has_value())
        << "cut to " << len << " bytes parsed as a whole model";
    EXPECT_EQ(loaded.error().code, ErrorCode::BadData);
    EXPECT_FALSE(loaded.error().message.empty());
  }
}

TEST(ArchiveProperty, BitFlipsNeverCrashAndNeverParseSilently) {
  const ExtrapolationProblem problem = random_problem(9);
  const TwoLevelModel model = fit_model(problem, 9);
  const std::string path = temp_path("prop_flip.hpcp");
  ASSERT_TRUE(write_model_archive(path, model, {}).has_value());
  const std::string full = read_file(path);

  const std::string flip_path = temp_path("prop_flip_mut.hpcp");
  std::size_t rejected = 0;
  for (std::size_t k = 0; k < 64; ++k) {
    const std::size_t pos = (full.size() - 1) * k / 63;
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    write_file(flip_path, mutated);
    const auto archive = ModelArchive::open(flip_path);
    if (!archive.has_value()) {
      EXPECT_EQ(archive.error().code, ErrorCode::BadData);
      ++rejected;
      continue;
    }
    const auto loaded = archive->load_model();
    if (!loaded.has_value()) {
      EXPECT_EQ(loaded.error().code, ErrorCode::BadData);
      ++rejected;
    }
    // A flip that survives both checks would be a checksum collision;
    // FNV-1a over a single bit flip cannot collide, so every flip must
    // be caught by header validation or a section checksum.
  }
  EXPECT_EQ(rejected, 64u);
}

TEST(ArchiveProperty, GarbageAndShortFilesAreTypedErrors) {
  const std::string path = temp_path("prop_garbage.hpcp");
  // The junk includes the start of a hexfloat text model, the format
  // models were once saved in: it is not an archive either.
  for (const auto& junk :
       {std::string{}, std::string{"HPCP"}, std::string{"not an archive"},
        std::string{"@hpcpredict-two-level-v1\n9 two-level\n0\n1\n"},
        std::string(7, '\0'), std::string(4096, 'x')}) {
    write_file(path, junk);
    const auto archive = ModelArchive::open(path);
    ASSERT_FALSE(archive.has_value()) << "junk of " << junk.size()
                                      << " bytes opened";
    EXPECT_EQ(archive.error().code, ErrorCode::BadData);
  }
  // A section table whose offsets point past EOF ("short map"): take a
  // real header+table and drop the payloads entirely.
  const ExtrapolationProblem problem = random_problem(5);
  const TwoLevelModel model = fit_model(problem, 5);
  const std::string real_path = temp_path("prop_shortmap_src.hpcp");
  ASSERT_TRUE(write_model_archive(real_path, model, {}).has_value());
  const std::string full = read_file(real_path);
  const std::size_t header_and_table = 24 + 2 * 40;  // 2 sections
  ASSERT_GT(full.size(), header_and_table);
  write_file(path, full.substr(0, header_and_table));
  const auto archive = ModelArchive::open(path);
  ASSERT_FALSE(archive.has_value());
  EXPECT_EQ(archive.error().code, ErrorCode::BadData);
}

std::uint64_t u64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

// Header 24 B, then 40 B per section; "model" is the second entry.
constexpr std::size_t kModelEntry = 24 + 40;

std::size_t model_offset(const std::string& bytes) {
  return u64_at(bytes, kModelEntry + 16);
}

/// Rewrites the model section's table checksum to match its (edited)
/// payload, so only the parser can object to the edit.
void reseal_model_section(std::string& bytes) {
  const std::size_t offset = model_offset(bytes);
  const std::size_t size = u64_at(bytes, kModelEntry + 24);
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (std::size_t i = offset; i < offset + size; ++i) {
    fnv ^= static_cast<unsigned char>(bytes[i]);
    fnv *= 0x100000001b3ULL;
  }
  std::memcpy(bytes.data() + kModelEntry + 32, &fnv, sizeof(fnv));
}

TEST(ArchiveProperty, UnknownModelVersionIsATypedError) {
  // A well-formed archive whose model section carries another format
  // version (re-checksummed, so only the parser can object).
  const ExtrapolationProblem problem = random_problem(4);
  const TwoLevelModel model = fit_model(problem, 4);
  const std::string path = temp_path("prop_version.hpcp");
  ASSERT_TRUE(write_model_archive(path, model, {}).has_value());
  std::string bytes = read_file(path);
  const std::size_t offset = model_offset(bytes);
  const std::string tag = "hpcpredict-two-level-v1";
  ASSERT_EQ(bytes.substr(offset + 8, tag.size()), tag);
  bytes[offset + 8 + tag.size() - 1] = '9';
  reseal_model_section(bytes);
  write_file(path, bytes);

  const auto archive = ModelArchive::open(path);
  ASSERT_TRUE(archive.has_value()) << archive.error().to_string();
  const auto loaded = archive->load_model();
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, ErrorCode::BadData);
  EXPECT_NE(loaded.error().message.find("expected tag"), std::string::npos)
      << loaded.error().message;
}

TEST(ArchiveProperty, MalformedForestArraysAreATypedError) {
  // The first forest's packed arrays, edited in place and re-checksummed:
  // each edit is one the loader must catch before any walk starts.
  const ExtrapolationProblem problem = random_problem(5);
  const TwoLevelModel model = fit_model(problem, 5);
  const std::string path = temp_path("prop_forest.hpcp");
  ASSERT_TRUE(write_model_archive(path, model, {}).has_value());
  const std::string clean = read_file(path);
  const std::string tag = "forest-flat";
  const std::size_t tag_at = clean.find(tag, model_offset(clean));
  ASSERT_NE(tag_at, std::string::npos);
  // Tag, num_features, has_oob, oob, importances, then the flat blocks:
  // roots (u64), thresholds (double), one link word per node (u64: the
  // feature in the low 32 bits, the left index in the high 32).
  std::size_t pos = tag_at + tag.size();
  const std::uint64_t num_features = u64_at(clean, pos);
  pos += 8 + 1 + 8;
  pos += 8 + 8 * u64_at(clean, pos);
  const std::size_t roots_at = pos + 8;
  pos += 8 + 8 * u64_at(clean, pos);
  const std::uint64_t nodes = u64_at(clean, pos);
  pos += 8 + 8 * nodes;
  ASSERT_EQ(u64_at(clean, pos), nodes);
  const std::size_t feature_at = pos + 8;  // node 0's link word
  const std::size_t left_at = feature_at + 4;
  const auto i32_at = [&](std::size_t at) {
    std::int32_t v = 0;
    std::memcpy(&v, clean.data() + at, sizeof(v));
    return v;
  };
  ASSERT_GE(i32_at(feature_at), 0) << "tree 0's root should split";
  ASSERT_EQ(i32_at(left_at), 1);

  const auto put_i32 = [](std::string& bytes, std::size_t at,
                          std::int32_t v) {
    std::memcpy(bytes.data() + at, &v, sizeof(v));
  };
  const struct {
    const char* what;
    std::size_t at;
    std::int32_t value;
  } edits[] = {
      {"feature >= num_features", feature_at,
       static_cast<std::int32_t>(num_features)},
      {"backward left link", left_at, 0},
      {"left + 1 past the tree", left_at, static_cast<std::int32_t>(nodes)},
      {"non-ascending roots", roots_at + 8, 0},
  };
  for (const auto& edit : edits) {
    std::string bytes = clean;
    put_i32(bytes, edit.at, edit.value);
    reseal_model_section(bytes);
    write_file(path, bytes);
    const auto archive = ModelArchive::open(path);
    ASSERT_TRUE(archive.has_value()) << archive.error().to_string();
    const auto loaded = archive->load_model();
    ASSERT_FALSE(loaded.has_value()) << edit.what;
    EXPECT_EQ(loaded.error().code, ErrorCode::BadData) << edit.what;
    EXPECT_NE(loaded.error().message.find("packed forest"),
              std::string::npos)
        << edit.what << ": " << loaded.error().message;
  }
}

TEST(ArchiveProperty, MissingFileIsIoError) {
  const auto archive = ModelArchive::open("/nonexistent/dir/model.hpcp");
  ASSERT_FALSE(archive.has_value());
  EXPECT_EQ(archive.error().code, ErrorCode::Io);
}

}  // namespace
}  // namespace hpcp::registry
