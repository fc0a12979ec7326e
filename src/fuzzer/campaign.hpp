// Campaign harness — runs the A/B experiment of the paper's §V: Peach vs
// Peach* on one protocol target, N repetitions each, and derives the
// Figure 4 series plus the headline scalars (speedup to equal coverage,
// final path increase, vulnerabilities found).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "fuzzer/fuzzer.hpp"

namespace icsfuzz::fuzz {

struct CampaignConfig {
  std::uint64_t iterations = 20000;   // per repetition
  std::size_t repetitions = 10;       // paper: "repeated each ... 10 times"
  std::uint64_t base_seed = 1000;     // repetition i uses base_seed + i
  std::uint64_t stats_interval = 500;
  FuzzerConfig fuzzer;                // strategy field is overridden per arm
};

/// Aggregated outcome of one arm (one strategy).
struct ArmResult {
  Strategy strategy = Strategy::Peach;
  std::vector<std::vector<Checkpoint>> repetition_series;
  std::vector<Checkpoint> mean_series;
  double mean_final_paths = 0.0;
  double mean_final_edges = 0.0;
  double mean_unique_crashes = 0.0;
  /// Unique vulnerabilities (kind+site) pooled across repetitions.
  CrashDb pooled_crashes;
};

struct CampaignResult {
  std::string project;
  ArmResult peach;
  ArmResult peach_star;

  /// Executions Peach* needed (on its mean series) to reach Peach's mean
  /// final path count; 0 when never reached.
  [[nodiscard]] std::uint64_t executions_to_match_baseline() const;

  /// Speedup factor: iterations / executions_to_match_baseline (the paper's
  /// "achieves the same code coverage at the speed of 1.2X-25X").
  [[nodiscard]] double speedup() const;

  /// Final path increase percentage (the paper's "8.35%-36.84% more paths").
  [[nodiscard]] double path_increase_pct() const;
};

/// Factory that produces a fresh target instance per repetition.
using TargetFactory = std::function<std::unique_ptr<ProtocolTarget>()>;

/// Runs both arms. `on_progress(arm, repetition)` (optional) reports
/// progress for long campaigns.
CampaignResult run_campaign(
    const std::string& project, const TargetFactory& make_target,
    const model::DataModelSet& models, const CampaignConfig& config,
    const std::function<void(Strategy, std::size_t)>& on_progress = {});

/// Runs a single arm (used by the ablation benches).
ArmResult run_arm(Strategy strategy, const TargetFactory& make_target,
                  const model::DataModelSet& models,
                  const CampaignConfig& config);

/// Renders the mean series of both arms as aligned CSV
/// ("executions,peach_paths,peachstar_paths").
std::string series_csv(const CampaignResult& result);

}  // namespace icsfuzz::fuzz
