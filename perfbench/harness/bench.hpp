#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/common.hpp"
#include "src/core/train_report.hpp"
#include "src/core/two_level_model.hpp"

/// \file bench.hpp (perfbench)
/// Workload specs and the subcommands of the `perfbench` harness:
///
///   prepare  the seeded request streams and the fixed site histories
///   fit      history CSVs -> fitted .hpcp archives in a registry (fit_s,
///            mape_pct, train.* timings), in a process of its own
///   load     the open-loop generator against a running daemon
///   verify   byte-for-byte check of daemon responses against an
///            in-process Server loaded from the same archive version
///   layers   traced in-process replay of the same inputs through each
///            layer's public function (per-layer metrics)

namespace perfbench {

/// One tenant of a workload's registry: which application, and how many
/// history configurations its model is fitted on.
struct TenantSpec {
  std::string tenant;
  std::string app;
  std::size_t configs = 0;
};

struct WorkloadSpec {
  std::string name;
  std::vector<TenantSpec> tenants;
  /// Request kind of the main stream: "unique" (every line a fresh
  /// parameter vector), "zipf" (a small key set with Zipf popularity).
  std::string stream;
  /// Distinct (params, scales) keys of a "zipf" stream.
  std::size_t zipf_keys = 0;
  /// Times the full fit pipeline is repeated (fit_s is their median).
  std::size_t fit_rounds = 5;
};

[[nodiscard]] WorkloadSpec workload_spec(const std::string& name);

/// The small scales every history is measured at and the target scales
/// every model is fitted for (the paper's extrapolation set).
[[nodiscard]] const std::vector<std::size_t>& small_scales();
[[nodiscard]] const std::vector<std::size_t>& target_scales();

/// One CSV -> archive pipeline with its stage timings.
struct FitOutcome {
  hpcp::TwoLevelModel model;
  hpcp::TrainReport report;
  double history_load_s = 0.0;  ///< csv read + load_history_csv
  double validate_s = 0.0;      ///< validate_history
  double archive_write_s = 0.0;
  double total_s = 0.0;         ///< the whole pipeline
  std::uint64_t archive_bytes = 0;
};

/// history CSV -> validate_history -> TwoLevelModel::fit_checked ->
/// registry::write_model_archive, timed stage by stage.
[[nodiscard]] FitOutcome fit_pipeline(const std::string& csv_path,
                                      const std::string& archive_path,
                                      const std::string& tenant,
                                      std::uint64_t version);

/// Held-out extrapolation MAPE (percent) over the target scales against
/// the simulator's noise-free runtimes.
[[nodiscard]] double heldout_mape_pct(const hpcp::TwoLevelModel& model,
                                      const std::string& app,
                                      std::uint64_t seed);

/// The history seed: every workload's site histories are fixed, so
/// run-to-run differences in fit time and accuracy come from the program.
constexpr std::uint64_t kHistorySeed = 2020;

/// SplitMix64 of (seed, salt): independent sub-seeds of one seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

int cmd_prepare(const Flags& flags);
int cmd_fit(const Flags& flags);
int cmd_load(const Flags& flags);
int cmd_verify(const Flags& flags);
int cmd_layers(const Flags& flags);

}  // namespace perfbench
