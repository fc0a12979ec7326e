#include "fuzzer/campaign.hpp"

#include <algorithm>

namespace icsfuzz::fuzz {
namespace {

/// Everything one repetition contributes to its arm's aggregate.
struct RepetitionOutcome {
  std::vector<Checkpoint> series;
  double final_paths = 0.0;
  double final_edges = 0.0;
  double final_crashes = 0.0;
  std::vector<CrashRecord> crash_records;
};

/// One deterministic repetition: fresh target, seed base_seed + rep.
RepetitionOutcome run_repetition(Strategy strategy, std::size_t rep,
                                 const TargetFactory& make_target,
                                 const model::DataModelSet& models,
                                 const CampaignConfig& config) {
  auto target = make_target();
  FuzzerConfig fuzzer_config = config.fuzzer;
  fuzzer_config.strategy = strategy;
  fuzzer_config.rng_seed = config.base_seed + rep;
  fuzzer_config.stats_interval = config.stats_interval;
  Fuzzer fuzzer(*target, models, fuzzer_config);
  fuzzer.run(config.iterations);

  RepetitionOutcome outcome;
  outcome.series = fuzzer.stats().checkpoints();
  outcome.final_paths = static_cast<double>(fuzzer.path_count());
  outcome.final_edges = static_cast<double>(fuzzer.executor().edge_count());
  outcome.final_crashes =
      static_cast<double>(fuzzer.crashes().unique_count());
  for (const CrashRecord* record : fuzzer.crashes().records()) {
    outcome.crash_records.push_back(*record);
  }
  return outcome;
}

/// Folds repetition outcomes (in repetition order) into an ArmResult.
ArmResult assemble_arm(Strategy strategy,
                       std::vector<RepetitionOutcome> outcomes) {
  ArmResult arm;
  arm.strategy = strategy;
  double sum_paths = 0.0;
  double sum_edges = 0.0;
  double sum_crashes = 0.0;
  for (RepetitionOutcome& outcome : outcomes) {
    arm.repetition_series.push_back(std::move(outcome.series));
    sum_paths += outcome.final_paths;
    sum_edges += outcome.final_edges;
    sum_crashes += outcome.final_crashes;
    for (const CrashRecord& record : outcome.crash_records) {
      arm.pooled_crashes.record(
          san::FaultReport{record.kind, record.site, record.detail},
          record.reproducer, record.first_execution);
    }
  }
  const double reps =
      outcomes.empty() ? 1.0 : static_cast<double>(outcomes.size());
  arm.mean_final_paths = sum_paths / reps;
  arm.mean_final_edges = sum_edges / reps;
  arm.mean_unique_crashes = sum_crashes / reps;
  arm.mean_series = average_series(arm.repetition_series);
  return arm;
}

}  // namespace

ArmResult run_arm(Strategy strategy, const TargetFactory& make_target,
                  const model::DataModelSet& models,
                  const CampaignConfig& config) {
  std::vector<RepetitionOutcome> outcomes;
  outcomes.reserve(config.repetitions);
  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    outcomes.push_back(
        run_repetition(strategy, rep, make_target, models, config));
  }
  return assemble_arm(strategy, std::move(outcomes));
}

CampaignResult run_campaign(
    const std::string& project, const TargetFactory& make_target,
    const model::DataModelSet& models, const CampaignConfig& config,
    const std::function<void(Strategy, std::size_t)>& on_progress) {
  CampaignResult result;
  result.project = project;
  if (on_progress) on_progress(Strategy::Peach, 0);
  result.peach = run_arm(Strategy::Peach, make_target, models, config);
  if (on_progress) on_progress(Strategy::PeachStar, 0);
  result.peach_star = run_arm(Strategy::PeachStar, make_target, models, config);
  return result;
}

std::uint64_t CampaignResult::executions_to_match_baseline() const {
  const double goal = peach.mean_final_paths;
  for (const Checkpoint& point : peach_star.mean_series) {
    if (static_cast<double>(point.paths) >= goal) return point.executions;
  }
  return 0;
}

double CampaignResult::speedup() const {
  const std::uint64_t to_match = executions_to_match_baseline();
  if (to_match == 0) return 1.0;  // never matched within budget
  const std::uint64_t budget =
      peach.mean_series.empty() ? to_match
                                : peach.mean_series.back().executions;
  return static_cast<double>(budget) / static_cast<double>(to_match);
}

double CampaignResult::path_increase_pct() const {
  if (peach.mean_final_paths <= 0.0) return 0.0;
  return (peach_star.mean_final_paths - peach.mean_final_paths) /
         peach.mean_final_paths * 100.0;
}

std::string series_csv(const CampaignResult& result) {
  std::string out = "executions,peach_paths,peachstar_paths\n";
  const auto& a = result.peach.mean_series;
  const auto& b = result.peach_star.mean_series;
  const std::size_t rows = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t execs = i < a.size() ? a[i].executions
                                             : b[i].executions;
    out += std::to_string(execs) + ",";
    out += i < a.size() ? std::to_string(a[i].paths) : std::string("");
    out += ",";
    out += i < b.size() ? std::to_string(b[i].paths) : std::string("");
    out += "\n";
  }
  return out;
}

}  // namespace icsfuzz::fuzz
