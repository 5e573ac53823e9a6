/// End-to-end Server tests: request routing, hot reload semantics (a
/// failed reload must leave the old model serving), cache invalidation,
/// and the serve determinism contract — one request stream must produce
/// byte-identical responses for any worker count, cache configuration,
/// and micro-batch bound.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
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

/// One small trained model shared by every test (fitting dominates the
/// suite's runtime; the model itself is immutable).
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
    out->model_path = ::testing::TempDir() + "/hpcp_serve_model.hpcp";
    registry::write_model_archive(out->model_path, out->model, {})
        .value_or_throw();
    return out;
  }();
  return *f;
}

/// Server owns a mutex and atomics, so it is pinned in place — tests hold
/// it behind a unique_ptr.
std::unique_ptr<Server> make_server(ServeOptions opts = {}) {
  auto server = std::make_unique<Server>(opts);
  server->set_model(fixture().model, fixture().model_path);
  return server;
}

/// A canonical predict line for test config `i` (modulo the test set).
std::string predict_line(std::size_t i, const std::string& scales_json) {
  const auto& test = fixture().exp.test;
  const auto row = test.configs.row(i % test.size());
  std::string line = "{\"id\":" + std::to_string(i) + ",\"params\":[";
  for (std::size_t d = 0; d < row.size(); ++d) {
    if (d > 0) line += ',';
    obs::json_number_into(line, row[d]);
  }
  line += ']';
  if (!scales_json.empty()) line += ",\"scales\":" + scales_json;
  line += '}';
  return line;
}

TEST(ServeServer, PredictAnswersWithModelVersion) {
  const auto server = make_server();
  const std::string response = server->handle_line(predict_line(0, "[64]"));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.find("\"model_version\":1"), std::string::npos);
  EXPECT_NE(response.find("\"scales\":[64]"), std::string::npos);
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST(ServeServer, OmittedScalesFallBackToModelTargets) {
  const auto server = make_server();
  const auto targets = fixture().model.extrapolation().target_scales();
  std::string expect = "\"scales\":[";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (i > 0) expect += ',';
    expect += std::to_string(targets[i]);
  }
  expect += ']';
  EXPECT_NE(server->handle_line(predict_line(0, "")).find(expect),
            std::string::npos);
}

TEST(ServeServer, ServerWithoutModelIsUnavailable) {
  Server server;
  EXPECT_EQ(server.model_version(), 0u);
  const std::string response = server.handle_line(predict_line(0, "[64]"));
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("\"code\":\"unavailable\""), std::string::npos);
}

TEST(ServeServer, ParamsWidthMismatchIsATypedError) {
  const auto server = make_server();
  const std::string response =
      server->handle_line(R"({"id":9,"params":[1.0],"scales":[64]})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("width mismatch"), std::string::npos);
  EXPECT_NE(response.find("\"id\":9"), std::string::npos);
}

TEST(ServeServer, MalformedLineStillGetsAResponseLine) {
  const auto server = make_server();
  const std::string response = server->handle_line("{{{");
  EXPECT_NE(response.find("\"code\":\"bad-request\""), std::string::npos);
}

TEST(ServeServer, FailedReloadKeepsTheOldModelServing) {
  const auto server = make_server();
  const std::string before =
      server->handle_line(predict_line(1, "[64,256]"));
  const std::string response = server->handle_line(
      R"({"id":"r","cmd":"reload","model":"/nonexistent/model.hpcp"})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("\"code\":\"io\""), std::string::npos);
  EXPECT_EQ(server->model_version(), 1u);  // version did not bump
  // The old snapshot still answers, byte-identically.
  EXPECT_EQ(server->handle_line(predict_line(1, "[64,256]")), before);
}

TEST(ServeServer, TextModelFileIsATypedErrorAndOldModelServes) {
  // The `.hpcp` archive is the only model format: a text file (here the
  // head of a hexfloat text model) is rejected by both load paths.
  const std::string text_path = ::testing::TempDir() + "/hpcp_text_model.txt";
  std::ofstream(text_path) << "@hpcpredict-two-level-v1\n9 two-level\n0\n";
  const auto server = make_server();
  const std::string before =
      server->handle_line(predict_line(1, "[64,256]"));

  const auto loaded = server->load_model_file(text_path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, ErrorCode::BadData);

  const std::string response = server->handle_line(
      "{\"id\":\"r\",\"cmd\":\"reload\",\"model\":" +
      obs::json_quote(text_path) + "}");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"code\":\"bad-data\""), std::string::npos)
      << response;
  EXPECT_EQ(server->model_version(), 1u);
  EXPECT_EQ(server->handle_line(predict_line(1, "[64,256]")), before);
}

TEST(ServeServer, SuccessfulReloadBumpsVersionAndClearsCache) {
  const auto server = make_server();
  (void)server->handle_line(predict_line(0, "[64]"));
  EXPECT_GT(server->cache().size(), 0u);
  const std::string response = server->handle_line(
      "{\"cmd\":\"reload\",\"model\":" +
      obs::json_quote(fixture().model_path) + "}");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.find("\"model_version\":2"), std::string::npos);
  EXPECT_EQ(server->model_version(), 2u);
  EXPECT_EQ(server->cache().size(), 0u);  // old model's values are gone
  // Responses now advertise the new version.
  EXPECT_NE(server->handle_line(predict_line(0, "[64]"))
                .find("\"model_version\":2"),
            std::string::npos);
}

TEST(ServeServer, ReloadWithoutPathReReadsTheSourceArchive) {
  const auto server = make_server();
  const std::string response = server->handle_line(R"({"cmd":"reload"})");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_EQ(server->model_version(), 2u);
}

TEST(ServeServer, SighupFlagTriggersAnOutOfBandReload) {
  const auto server = make_server();
  reload_flag().store(true);
  std::istringstream in(predict_line(0, "[64]") + "\n");
  std::ostringstream out;
  EXPECT_FALSE(server->run(in, out));  // EOF, not shutdown
  EXPECT_FALSE(reload_flag().load());
  EXPECT_EQ(server->model_version(), 2u);  // reloaded before serving
  // Exactly one response line: the reload itself was silent.
  EXPECT_NE(out.str().find("\"model_version\":2"), std::string::npos);
  EXPECT_EQ(out.str().find('\n'), out.str().size() - 1);
}

TEST(ServeServer, ShutdownStopsTheLoopAndAcks) {
  const auto server = make_server();
  std::istringstream in(predict_line(0, "[64]") +
                        "\n{\"cmd\":\"shutdown\"}\n" +
                        predict_line(1, "[64]") + "\n");
  std::ostringstream out;
  EXPECT_TRUE(server->run(in, out));
  // Two lines: the predict response and the shutdown ack; the request
  // after shutdown was never read.
  EXPECT_NE(out.str().find("\"cmd\":\"shutdown\""), std::string::npos);
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST(ServeServer, BlankLinesProduceNoResponse) {
  const auto server = make_server();
  EXPECT_EQ(server->handle_line(""), "");
  EXPECT_EQ(server->handle_line("  \t"), "");
  std::istringstream in("\n \n" + predict_line(0, "[64]") + "\n\n");
  std::ostringstream out;
  (void)server->run(in, out);
  EXPECT_EQ(out.str().find('\n'), out.str().size() - 1);  // one response
}

TEST(ServeServer, StatsReportsCacheCounters) {
  const auto server =
      make_server({.cache_entries = 128, .cache_shards = 2});
  (void)server->handle_line(predict_line(0, "[64]"));
  (void)server->handle_line(predict_line(0, "[64]"));  // cache hit
  const std::string stats = server->handle_line(R"({"cmd":"stats"})");
  EXPECT_NE(stats.find("\"requests\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_hits\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_capacity\":128"), std::string::npos);
}

/// Delivers `chunk` in one read. The next read is where a pipe would
/// block: it records whether `out` already holds a response, then reports
/// EOF.
class OneChunkThenBlock final : public std::streambuf {
 public:
  OneChunkThenBlock(std::string chunk, const std::ostringstream* out)
      : chunk_(std::move(chunk)), out_(out) {}
  [[nodiscard]] bool blocked() const noexcept { return blocked_; }
  [[nodiscard]] bool answered_before_block() const noexcept {
    return answered_;
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (!delivered_) {
      delivered_ = true;
      setg(chunk_.data(), chunk_.data(), chunk_.data() + chunk_.size());
      return traits_type::to_int_type(chunk_.front());
    }
    if (!blocked_) {
      blocked_ = true;
      answered_ = !out_->str().empty();
    }
    return traits_type::eof();
  }

 private:
  std::string chunk_;
  const std::ostringstream* out_;
  bool delivered_ = false;
  bool blocked_ = false;
  bool answered_ = false;
};

TEST(ServeServer, ChunkEndingInABlankLineIsAnsweredBeforeTheNextRead) {
  const auto server = make_server();
  std::ostringstream out;
  OneChunkThenBlock chunk(predict_line(0, "[64]") + "\n\n", &out);
  std::istream in(&chunk);
  EXPECT_FALSE(server->run(in, out));
  ASSERT_TRUE(chunk.blocked());
  EXPECT_TRUE(chunk.answered_before_block())
      << "the response waited behind a read that would block";
  EXPECT_EQ(out.str(),
            make_server()->handle_line(predict_line(0, "[64]")) + "\n");
}

/// The three entry points over one line, each ending in handle_batch.
std::string run_one(Server& server, const std::string& line) {
  std::istringstream in(line + "\n");
  std::ostringstream out;
  (void)server.run(in, out);
  std::string response = out.str();
  if (!response.empty() && response.back() == '\n') response.pop_back();
  return response;
}

std::string handle_line_one(Server& server, const std::string& line) {
  return server.handle_line(line);
}

std::string handle_batch_one(Server& server, const std::string& line) {
  const Server::BatchLine one{
      line, line.size() > server.options().max_line_bytes};
  return server.handle_batch({&one, 1}).responses.at(0);
}

/// The per-code response counters of the server's stats snapshot.
std::string code_counters(const Server& server) {
  const std::string stats = server.render_stats_json();
  const auto begin = stats.find("\"responses\":");
  return stats.substr(begin, stats.find('}', begin) - begin + 1);
}

/// A frozen clock keeps uptime and the rolling windows equal across the
/// servers each entry point runs on.
ServeOptions parity_options() {
  return {.max_line_bytes = 1024, .clock_ms = [] { return std::uint64_t{7}; }};
}

TEST(ServeServer, EntryPointsAnswerEveryLineKindAlike) {
  struct Kind {
    const char* name;
    std::vector<std::string> setup;
    std::string probe;
  };
  const std::string predict = predict_line(0, "[64]");
  const std::vector<Kind> kinds = {
      {"ok predict", {}, predict},
      {"cached predict", {predict}, predict},
      {"malformed", {}, "{{{"},
      {"width mismatch", {}, R"({"id":9,"params":[1.0],"scales":[64]})"},
      {"too long", {}, "{\"params\":[" + std::string(2048, '1') + "]}"},
      {"blank", {}, " \t"},
      {"ping", {predict}, R"({"id":1,"cmd":"ping"})"},
      {"health", {predict}, R"({"id":2,"cmd":"health"})"},
      {"stats", {predict}, R"({"id":3,"cmd":"stats"})"},
  };
  using EntryPoint = std::string (*)(Server&, const std::string&);
  const std::vector<std::pair<const char*, EntryPoint>> entry_points = {
      {"run", run_one},
      {"handle_line", handle_line_one},
      {"handle_batch", handle_batch_one}};
  for (const Kind& kind : kinds) {
    std::vector<std::string> responses;
    std::vector<std::string> counters;
    for (const auto& [name, serve] : entry_points) {
      const auto server = make_server(parity_options());
      for (const std::string& line : kind.setup) (void)serve(*server, line);
      std::string response = serve(*server, kind.probe);
      // Latency quantiles and slow-log stamps are wall time.
      if (std::string(kind.name) == "stats") {
        response = response.substr(0, response.find(",\"windows\":"));
      }
      responses.push_back(response);
      counters.push_back(code_counters(*server));
    }
    for (std::size_t e = 1; e < entry_points.size(); ++e) {
      EXPECT_EQ(responses[e], responses[0])
          << kind.name << ": " << entry_points[e].first << " vs run";
      EXPECT_EQ(counters[e], counters[0])
          << kind.name << ": " << entry_points[e].first << " vs run";
    }
    EXPECT_EQ(responses[0].empty(), std::string(kind.name) == "blank")
        << kind.name;
  }
}

TEST(ServeServer, ShutdownMidWindowStopsEveryEntryPointAlike) {
  const std::vector<std::string> lines = {predict_line(0, "[64]"),
                                          R"({"id":"s","cmd":"shutdown"})",
                                          predict_line(1, "[64]")};
  const auto ran = make_server(parity_options());
  std::istringstream in(lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
  std::ostringstream out;
  EXPECT_TRUE(ran->run(in, out));

  const auto batched = make_server(parity_options());
  std::vector<Server::BatchLine> window;
  for (const std::string& line : lines) window.push_back({line, false});
  const Server::BatchOutcome outcome = batched->handle_batch(window);
  EXPECT_TRUE(outcome.shutdown);
  EXPECT_EQ(outcome.consumed, 2u);  // the line after shutdown is untouched
  ASSERT_EQ(outcome.responses.size(), 2u);

  const auto single = make_server(parity_options());
  const std::string singles = single->handle_line(lines[0]) + "\n" +
                              single->handle_line(lines[1]) + "\n";

  const std::string batched_text =
      outcome.responses[0] + "\n" + outcome.responses[1] + "\n";
  EXPECT_EQ(out.str(), batched_text);
  EXPECT_EQ(singles, batched_text);
  EXPECT_NE(batched_text.find("\"cmd\":\"shutdown\""), std::string::npos);
  for (const Server* server : {ran.get(), batched.get(), single.get()}) {
    EXPECT_EQ(server->requests_served(), 1u);
    EXPECT_EQ(code_counters(*server), code_counters(*ran));
  }
}

/// The determinism contract, in-process: one replay, many configurations.
TEST(ServeServer, ReplayIsBitwiseIdenticalAcrossWorkersAndCache) {
  std::string replay;
  for (std::size_t i = 0; i < 240; ++i) {
    switch (i % 6) {
      case 0: replay += predict_line(i, "[64,256]"); break;
      case 1: replay += predict_line(0, "[64,256]"); break;  // repeat: hits
      case 2: replay += predict_line(i, ""); break;          // default scales
      case 3: replay += predict_line(i, "[128]"); break;
      case 4: replay += R"({"id":-1,"params":[0.5],"scales":[64]})"; break;
      case 5: replay += "definitely not json"; break;
    }
    replay += '\n';
  }

  const auto run_replay = [&replay](ServeOptions opts) {
    const auto server = make_server(opts);
    std::istringstream in(replay);
    std::ostringstream out;
    (void)server->run(in, out);
    return out.str();
  };

  const std::string reference = run_replay({.threads = 1});
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(run_replay({.threads = 4}), reference) << "worker count leaked";
  EXPECT_EQ(run_replay({.threads = 4, .cache_entries = 0}), reference)
      << "cache on/off leaked";
  EXPECT_EQ(run_replay({.threads = 2, .cache_entries = 3,
                        .cache_shards = 2}),
            reference)
      << "cache eviction leaked";
  EXPECT_EQ(run_replay({.threads = 4, .batch_max = 1}), reference)
      << "batching leaked";
  EXPECT_EQ(run_replay({.threads = 4, .batch_max = 512}), reference)
      << "batching leaked";

  // handle_line (a batch of one) must agree with the streamed loop.
  const auto one = make_server();
  std::string lines;
  std::istringstream in(replay);
  std::string line;
  while (std::getline(in, line)) {
    const std::string response = one->handle_line(line);
    if (!response.empty()) lines += response + '\n';
  }
  EXPECT_EQ(lines, reference);
}

}  // namespace
}  // namespace hpcp::serve
