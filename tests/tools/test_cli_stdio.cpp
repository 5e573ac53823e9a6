/// `hpcpredict_cli serve --stdio` driven as a child process over a real
/// pipe: a burst of request lines that is already buffered when the
/// server reads must reach Server::handle_batch as one window. The CLI's
/// standard streams decide that (a stream synced with C stdio reports
/// nothing buffered after each line), so only the binary itself can show
/// it.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/problem.hpp"
#include "src/core/two_level_model.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/registry/archive.hpp"

extern char** environ;

namespace hpcp {
namespace {

/// A small three-parameter model, archived where the child can open it.
std::string write_model(const std::string& path) {
  Rng rng(7);
  ExtrapolationProblem problem;
  problem.param_names = {"p0", "p1", "p2"};
  problem.small_scales = {1, 2, 4, 8};
  problem.target_scales = {16, 32};
  problem.train_configs = Matrix(24, 3);
  problem.train_small_times = Matrix(24, 4);
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      problem.train_configs(i, j) = rng.uniform(1.0, 100.0);
    }
    const double base = rng.uniform(0.5, 50.0);
    for (std::size_t s = 0; s < 4; ++s) {
      problem.train_small_times(i, s) =
          base / static_cast<double>(problem.small_scales[s]) + 0.1;
    }
  }
  TwoLevelOptions opts;
  opts.forest.num_trees = 8;
  TwoLevelModel model(opts);
  model.fit_checked(problem, rng).value_or_throw();
  registry::write_model_archive(path, model, {}).value_or_throw();
  return path;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double metric(const obs::JsonValue& doc, const std::string& kind,
              const std::string& name) {
  for (const auto& entry : doc.at(kind).as_array()) {
    if (entry.at("name").as_string() == name) {
      return entry.at("value").as_number();
    }
  }
  ADD_FAILURE() << "no " << kind << " entry " << name;
  return -1.0;
}

TEST(CliStdio, PipedBurstReachesHandleBatchAsOneWindow) {
  const std::string dir = ::testing::TempDir();
  const std::string model = write_model(dir + "/cli_stdio_model.hpcp");
  const std::string metrics = dir + "/cli_stdio_metrics.json";
  const std::string out = dir + "/cli_stdio_out.txt";

  // The whole burst sits in the pipe before the server starts reading.
  constexpr int kLines = 6;
  std::string burst;
  for (int i = 0; i < kLines; ++i) {
    burst += "{\"params\":[" + std::to_string(10 + i) + ",20,30]}\n";
  }
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  ::close(fds[1]);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[0], STDIN_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<std::string> args{HPCP_CLI_PATH, "serve",  "--stdio",
                                "--model",     model,    "--metrics-out",
                                metrics};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = ::posix_spawn(&pid, HPCP_CLI_PATH, &actions, nullptr,
                                    argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[0]);
  ASSERT_EQ(spawned, 0) << HPCP_CLI_PATH;
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;

  // Every line is answered...
  std::istringstream replies(read_text(out));
  int ok = 0;
  for (std::string line; std::getline(replies, line);) {
    ok += line.rfind("{\"ok\":true", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(ok, kLines);
  // ...by one micro-batch holding every row: the burst was one window.
  const auto doc = obs::parse_json(read_text(metrics));
  EXPECT_EQ(metric(doc, "counters", "serve.batches"), 1.0);
  EXPECT_EQ(metric(doc, "gauges", "serve.batch_size"),
            static_cast<double>(kLines));
}

}  // namespace
}  // namespace hpcp
