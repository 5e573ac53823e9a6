/// Resilience-layer Server tests: the bounded line reader, admission
/// control and shedding, degraded cache-only mode, the health probe,
/// request deadlines against an injected clock, reload retry backoff, and
/// the crash-safe archive publish that reloads depend on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/two_level_model.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/registry/archive.hpp"
#include "src/serve/server.hpp"

namespace hpcp::serve {
namespace {

struct Fixture {
  Experiment exp;
  TwoLevelModel model;
  std::string model_path;
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    auto* out = new Fixture;
    ExperimentConfig cfg;
    cfg.app_name = "minimd";
    cfg.num_train = 60;
    cfg.num_test = 8;
    cfg.seed = 101;
    out->exp = make_experiment(cfg);
    Rng rng(2);
    out->model.fit(out->exp.problem, rng);
    out->model_path =
        ::testing::TempDir() + "/hpcp_serve_resilience_model.hpcp";
    registry::write_model_archive(out->model_path, out->model, {})
        .value_or_throw();
    return out;
  }();
  return *f;
}

std::unique_ptr<Server> make_server(ServeOptions opts = {}) {
  auto server = std::make_unique<Server>(opts);
  server->set_model(fixture().model, fixture().model_path);
  return server;
}

std::string predict_line(std::size_t i) {
  const auto& test = fixture().exp.test;
  const auto row = test.configs.row(i % test.size());
  std::string line = "{\"id\":" + std::to_string(i) + ",\"params\":[";
  for (std::size_t d = 0; d < row.size(); ++d) {
    if (d > 0) line += ',';
    obs::json_number_into(line, row[d]);
  }
  line += "],\"scales\":[64]}";
  return line;
}

std::vector<std::string> run_lines(Server& server, const std::string& in_text) {
  std::istringstream in(in_text);
  std::ostringstream out;
  (void)server.run(in, out);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  return lines;
}

TEST(ServeResilience, OverlongLineIsDiscardedWithTypedError) {
  const auto server = make_server({.max_line_bytes = 128});
  const std::string huge = "{\"params\":[" + std::string(4096, '1') + "]}";
  // The over-long line is answered and the stream stays line-aligned: the
  // next request is parsed normally.
  const auto lines =
      run_lines(*server, huge + "\n" + predict_line(0) + "\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"code\":\"too-large\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("max_line_bytes=128"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
  EXPECT_EQ(server->too_large_rejects(), 1u);
}

TEST(ServeResilience, HandleLineAppliesTheSameBound) {
  const auto server = make_server({.max_line_bytes = 16});
  const std::string response =
      server->handle_line("{\"params\":[1,2,3,4,5,6,7,8,9]}");
  EXPECT_NE(response.find("\"code\":\"too-large\""), std::string::npos);
  EXPECT_EQ(server->too_large_rejects(), 1u);
}

TEST(ServeResilience, AdmissionControlShedsAboveMaxPending) {
  const auto server = make_server(
      {.batch_max = 8, .max_pending = 2, .retry_after_ms = 75});
  std::string burst;
  for (std::size_t i = 0; i < 8; ++i) burst += predict_line(i) + "\n";
  const auto lines = run_lines(*server, burst);
  ASSERT_EQ(lines.size(), 8u);
  // First two admitted, the rest shed — and responses stay in request
  // order with the client's ids echoed.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NE(lines[i].find("\"id\":" + std::to_string(i)),
              std::string::npos)
        << lines[i];
    if (i < 2) {
      EXPECT_NE(lines[i].find("\"ok\":true"), std::string::npos) << lines[i];
    } else {
      EXPECT_NE(lines[i].find("\"code\":\"overloaded\""), std::string::npos)
          << lines[i];
      EXPECT_NE(lines[i].find("\"retry_after_ms\":75"), std::string::npos)
          << lines[i];
    }
  }
  EXPECT_EQ(server->sheds(), 6u);
  EXPECT_FALSE(server->degraded());  // default shed streak is far higher
}

TEST(ServeResilience, SustainedSaturationEntersAndExitsDegradedMode) {
  const auto server = make_server({.batch_max = 16,
                                   .max_pending = 1,
                                   .degraded_shed_streak = 4});
  std::string burst;
  for (std::size_t i = 0; i < 8; ++i) burst += predict_line(i) + "\n";
  (void)run_lines(*server, burst);
  EXPECT_TRUE(server->degraded());
  EXPECT_EQ(server->sheds(), 7u);
  // One successfully admitted request relieves the saturation signal.
  (void)server->handle_line(predict_line(0));
  EXPECT_FALSE(server->degraded());
}

TEST(ServeResilience, ReloadFailureStreakEntersDegradedCacheOnlyMode) {
  const auto server = make_server();
  // Prime the cache while healthy.
  const std::string cached = server->handle_line(predict_line(0));
  ASSERT_NE(cached.find("\"ok\":true"), std::string::npos);
  const std::string bad_reload =
      R"({"cmd":"reload","model":"/nonexistent/m.hpcp"})";
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(server->handle_line(bad_reload).find("\"ok\":false"),
              std::string::npos);
  }
  EXPECT_EQ(server->reload_failure_streak(), 3u);
  EXPECT_TRUE(server->degraded());
  // Cache hits still flow, byte-identically; misses get the typed error.
  EXPECT_EQ(server->handle_line(predict_line(0)), cached);
  const std::string miss = server->handle_line(predict_line(1));
  EXPECT_NE(miss.find("\"code\":\"degraded\""), std::string::npos) << miss;
  EXPECT_NE(miss.find("\"retry_after_ms\""), std::string::npos);
  // A successful reload exits degraded mode (and clears the cache).
  const std::string ok_reload = server->handle_line(
      "{\"cmd\":\"reload\",\"model\":" +
      obs::json_quote(fixture().model_path) + "}");
  EXPECT_NE(ok_reload.find("\"ok\":true"), std::string::npos) << ok_reload;
  EXPECT_FALSE(server->degraded());
  EXPECT_EQ(server->reload_failure_streak(), 0u);
  EXPECT_NE(server->handle_line(predict_line(1)).find("\"ok\":true"),
            std::string::npos);
}

TEST(ServeResilience, HealthProbeReportsModeAndCounters) {
  const auto server = make_server({.max_pending = 64});
  const std::string healthy = server->handle_line(R"({"id":"h","cmd":"health"})");
  EXPECT_NE(healthy.find("\"id\":\"h\""), std::string::npos);
  EXPECT_NE(healthy.find("\"status\":\"ok\""), std::string::npos) << healthy;
  EXPECT_NE(healthy.find("\"max_pending\":64"), std::string::npos);
  EXPECT_NE(healthy.find("\"shed\":0"), std::string::npos);
  EXPECT_NE(healthy.find("\"reload_failure_streak\":0"), std::string::npos);
  EXPECT_EQ(healthy.find("\"retry_after_ms\""), std::string::npos)
      << "healthy probes carry no retry hint";

  for (int i = 0; i < 3; ++i) {
    (void)server->handle_line(
        R"({"cmd":"reload","model":"/nonexistent/m.hpcp"})");
  }
  const std::string degraded = server->handle_line(R"({"cmd":"health"})");
  EXPECT_NE(degraded.find("\"status\":\"degraded\""), std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find("\"reload_failure_streak\":3"), std::string::npos);
  EXPECT_NE(degraded.find("\"retry_after_ms\""), std::string::npos);

  Server empty;
  const std::string unavailable = empty.handle_line(R"({"cmd":"health"})");
  EXPECT_NE(unavailable.find("\"status\":\"unavailable\""),
            std::string::npos)
      << unavailable;
}

TEST(ServeResilience, DeadlineExpiryIsATypedErrorUnderTheInjectedClock) {
  // Every clock read jumps 40ms, so a 10ms deadline has always expired by
  // flush time; wall time is never consulted.
  std::uint64_t t = 0;
  const auto server = make_server({
      .request_deadline_ms = 10,
      .clock_ms = [&t] { return t += 40; },
  });
  const auto lines =
      run_lines(*server, predict_line(0) + "\n" + predict_line(1) + "\n");
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"code\":\"deadline\""), std::string::npos) << line;
  }
  EXPECT_EQ(server->deadline_rejects(), 2u);
  EXPECT_EQ(server->requests_served(), 0u);
}

TEST(ServeResilience, DeadlineDisabledByDefaultIgnoresTheClock) {
  std::uint64_t t = 0;
  const auto server =
      make_server({.clock_ms = [&t] { return t += 100000; }});
  const std::string response = server->handle_line(predict_line(0));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_EQ(server->deadline_rejects(), 0u);
}

TEST(ServeResilience, FailedReloadRetriesWithCappedBackoff) {
  std::uint64_t t = 0;
  const auto server = make_server({
      .reload_backoff_initial_ms = 100,
      .reload_backoff_max_ms = 400,
      .clock_ms = [&t] { return t += 1000; },  // every poll is past due
  });
  EXPECT_NE(server
                ->handle_line(
                    R"({"cmd":"reload","model":"/nonexistent/m.hpcp"})")
                .find("\"ok\":false"),
            std::string::npos);
  EXPECT_EQ(server->reload_failure_streak(), 1u);
  // Each loop iteration polls the retry schedule; with the clock leaping
  // 1s per read every retry is due, fails again, and doubles the backoff
  // up to the cap — the streak grows without any wall-clock sleeping.
  std::string input;
  for (std::size_t i = 0; i < 5; ++i) input += predict_line(0) + "\n";
  (void)run_lines(*server, input);
  EXPECT_GE(server->reload_failure_streak(), 4u);
  EXPECT_EQ(server->model_version(), 1u);  // old model never displaced
}

TEST(ServeResilience, TornArchiveFailsCleanlyAndOldFileStillLoads) {
  const std::string good =
      ::testing::TempDir() + "/hpcp_resilience_archive.hpcp";
  ASSERT_TRUE(
      registry::write_model_archive(good, fixture().model, {}).has_value());
  // Simulate a crash mid-write: a torn copy is a strict prefix of the
  // archive bytes.
  std::ifstream in(good, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string full = bytes.str();
  const std::string torn_path =
      ::testing::TempDir() + "/hpcp_resilience_torn.hpcp";
  std::ofstream torn(torn_path, std::ios::binary | std::ios::trunc);
  torn.write(full.data(),
             static_cast<std::streamsize>(full.size() / 2));
  torn.close();

  const auto torn_archive = registry::ModelArchive::open(torn_path);
  EXPECT_FALSE(torn_archive.has_value() &&
               torn_archive->load_model().has_value());
  const auto good_archive = registry::ModelArchive::open(good);
  ASSERT_TRUE(good_archive.has_value());
  EXPECT_TRUE(good_archive->load_model().has_value());

  // A server pointed at the torn file keeps its old model and reports a
  // typed error.
  const auto server = make_server();
  const std::string response = server->handle_line(
      "{\"cmd\":\"reload\",\"model\":" + obs::json_quote(torn_path) + "}");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_EQ(server->model_version(), 1u);
  EXPECT_NE(server->handle_line(predict_line(0)).find("\"ok\":true"),
            std::string::npos);
}

}  // namespace
}  // namespace hpcp::serve
