// Crash-safe checkpoint/resume coverage (src/supervise/checkpoint.hpp,
// supervisor.hpp).
//
// The load-bearing property is the differential oracle: a campaign that is
// checkpointed, killed, and resumed must finish bit-for-bit identical to
// one that was never interrupted. The suite builds up to it in layers —
// worker state hand-off across fresh Worker objects, the checkpoint text
// format round-trip, malformed-input rejection, the atomic file cycle —
// and then runs the real thing: a forked CampaignSupervisor SIGKILLed
// mid-campaign and resumed in the parent against an uninterrupted
// reference. A W=1 campaign is exactly reproducible (worker.hpp), so the
// oracle gates on one worker; multi-worker supervision is covered by
// test_supervisor.cpp with interleaving-tolerant assertions.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fuzzer/fuzzer.hpp"
#include "parallel/parallel_campaign.hpp"
#include "parallel/seed_exchange.hpp"
#include "parallel/worker.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "supervise/checkpoint.hpp"
#include "supervise/supervisor.hpp"
#include "tests/test_support.hpp"

namespace icsfuzz {
namespace {

namespace fs = std::filesystem;

fuzz::FuzzerConfig small_config(std::uint64_t seed) {
  fuzz::FuzzerConfig config;
  config.rng_seed = seed;
  config.stats_interval = 200;
  return config;
}

par::WorkerConfig solo_worker_config(std::uint64_t seed,
                                     std::uint64_t sync_interval) {
  par::WorkerConfig config;
  config.id = 0;
  config.worker_count = 1;
  config.sync_interval = sync_interval;
  config.fuzzer = small_config(par::worker_seed(seed, 0));
  return config;
}

std::unique_ptr<par::Worker> make_solo_worker(const model::DataModelSet& models,
                                              par::SeedExchange& exchange,
                                              std::uint64_t seed,
                                              std::uint64_t sync_interval) {
  return std::make_unique<par::Worker>(solo_worker_config(seed, sync_interval),
                                       std::make_unique<proto::ModbusServer>(),
                                       models, exchange);
}

/// Field-by-field trajectory comparison — identical campaigns, not merely
/// similar ones.
void expect_same_trajectory(const fuzz::Fuzzer& actual,
                            const fuzz::Fuzzer& expected) {
  EXPECT_EQ(actual.path_count(), expected.path_count());
  EXPECT_EQ(actual.executor().edge_count(), expected.executor().edge_count());
  EXPECT_EQ(actual.executor().executions(), expected.executor().executions());
  EXPECT_EQ(actual.crashes().unique_count(), expected.crashes().unique_count());
  EXPECT_EQ(actual.corpus().size(), expected.corpus().size());
  ASSERT_EQ(actual.retained_seeds().size(), expected.retained_seeds().size());
  for (std::size_t i = 0; i < actual.retained_seeds().size(); ++i) {
    EXPECT_EQ(actual.retained_seeds()[i].bytes,
              expected.retained_seeds()[i].bytes)
        << "retained seed " << i;
  }
  ASSERT_EQ(actual.stats().checkpoints().size(),
            expected.stats().checkpoints().size());
  for (std::size_t i = 0; i < actual.stats().checkpoints().size(); ++i) {
    EXPECT_EQ(actual.stats().checkpoints()[i].paths,
              expected.stats().checkpoints()[i].paths)
        << "stats checkpoint " << i;
    EXPECT_EQ(actual.stats().checkpoints()[i].executions,
              expected.stats().checkpoints()[i].executions)
        << "stats checkpoint " << i;
  }
  const std::vector<const fuzz::CrashRecord*> actual_crashes =
      actual.crashes().records();
  const std::vector<const fuzz::CrashRecord*> expected_crashes =
      expected.crashes().records();
  ASSERT_EQ(actual_crashes.size(), expected_crashes.size());
  for (std::size_t i = 0; i < actual_crashes.size(); ++i) {
    EXPECT_EQ(actual_crashes[i]->kind, expected_crashes[i]->kind);
    EXPECT_EQ(actual_crashes[i]->site, expected_crashes[i]->site);
    EXPECT_EQ(actual_crashes[i]->hits, expected_crashes[i]->hits);
    EXPECT_EQ(actual_crashes[i]->first_execution,
              expected_crashes[i]->first_execution);
    EXPECT_EQ(actual_crashes[i]->trace_hash, expected_crashes[i]->trace_hash);
    EXPECT_EQ(actual_crashes[i]->reproducer, expected_crashes[i]->reproducer);
  }
}

/// A per-test scratch directory under the system temp root.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& stem) {
    path_ = fs::temp_directory_path() /
            (stem + "-" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// ------------------------------------------------------ worker state hand-off

TEST(CheckpointResume, WorkerStateHandoffContinuesBitForBit) {
  const model::DataModelSet models = pits::modbus_pit();
  constexpr std::uint64_t kTotal = 2000;
  constexpr std::uint64_t kSeed = 4242;
  // A chunk boundary deliberately NOT aligned to the sync interval: the
  // absolute-index sync schedule must make any split invisible.
  constexpr std::uint64_t kSplit = 777;

  // Uninterrupted reference.
  par::SeedExchange reference_exchange;
  std::unique_ptr<par::Worker> reference =
      make_solo_worker(models, reference_exchange, kSeed, 256);
  reference->run_range(0, kTotal, kTotal);

  // First half on worker A, state captured between iterations.
  par::SeedExchange first_exchange;
  std::unique_ptr<par::Worker> first =
      make_solo_worker(models, first_exchange, kSeed, 256);
  first->run_range(0, kSplit, kTotal);
  const par::WorkerState state = first->capture_state();
  first.reset();  // the original worker is gone — as after a process death

  // Second half on a FRESH worker against a FRESH exchange (exactly what a
  // resumed process has: the exchange is rebuilt, never checkpointed).
  par::SeedExchange resumed_exchange;
  std::unique_ptr<par::Worker> resumed =
      make_solo_worker(models, resumed_exchange, kSeed, 256);
  resumed->restore_state(state);
  resumed->run_range(kSplit, kTotal, kTotal);

  expect_same_trajectory(resumed->fuzzer(), reference->fuzzer());
  EXPECT_EQ(resumed->progress(), kTotal);
}

TEST(CheckpointResume, ManySmallChunksEqualOneRun) {
  const model::DataModelSet models = pits::modbus_pit();
  constexpr std::uint64_t kTotal = 1500;
  constexpr std::uint64_t kSeed = 99;

  par::SeedExchange reference_exchange;
  std::unique_ptr<par::Worker> reference =
      make_solo_worker(models, reference_exchange, kSeed, 300);
  reference->run_range(0, kTotal, kTotal);

  // Re-execute the campaign as a chain of chunks, round-tripping the state
  // through a fresh worker at every boundary.
  par::SeedExchange exchange;
  std::unique_ptr<par::Worker> worker =
      make_solo_worker(models, exchange, kSeed, 300);
  std::uint64_t completed = 0;
  while (completed < kTotal) {
    const std::uint64_t chunk_end = std::min(kTotal, completed + 250);
    worker->run_range(completed, chunk_end, kTotal);
    completed = chunk_end;
    if (completed < kTotal) {
      const par::WorkerState state = worker->capture_state();
      worker = make_solo_worker(models, exchange, kSeed, 300);
      worker->restore_state(state);
    }
  }

  expect_same_trajectory(worker->fuzzer(), reference->fuzzer());
}

// ------------------------------------------------------- text format round-trip

supervise::CampaignCheckpoint mid_campaign_checkpoint(
    const model::DataModelSet& models) {
  par::SeedExchange exchange;
  std::unique_ptr<par::Worker> worker =
      make_solo_worker(models, exchange, 7, 128);
  worker->run_range(0, 900, 1800);  // crashes + corpus + stats populated

  supervise::CampaignCheckpoint cp;
  cp.completed_iterations = 900;
  cp.base_seed = 7;
  cp.iterations_per_worker = 1800;
  cp.sync_interval = 128;
  cp.workers.push_back(worker->capture_state());
  return cp;
}

TEST(CheckpointFormat, SerializeParseRoundTripIsCanonical) {
  const model::DataModelSet models = pits::modbus_pit();
  const supervise::CampaignCheckpoint cp = mid_campaign_checkpoint(models);

  const std::string text = supervise::serialize_checkpoint(cp);
  ASSERT_FALSE(text.empty());
  const std::optional<supervise::CampaignCheckpoint> parsed =
      supervise::parse_checkpoint(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->completed_iterations, cp.completed_iterations);
  EXPECT_EQ(parsed->base_seed, cp.base_seed);
  EXPECT_EQ(parsed->iterations_per_worker, cp.iterations_per_worker);
  EXPECT_EQ(parsed->sync_interval, cp.sync_interval);
  ASSERT_EQ(parsed->workers.size(), cp.workers.size());
  // Canonical form: re-serializing the parse reproduces the exact bytes.
  EXPECT_EQ(supervise::serialize_checkpoint(*parsed), text);
}

TEST(CheckpointFormat, RestoredWorkerFromParsedTextContinuesBitForBit) {
  const model::DataModelSet models = pits::modbus_pit();
  const supervise::CampaignCheckpoint cp = mid_campaign_checkpoint(models);
  const std::optional<supervise::CampaignCheckpoint> parsed =
      supervise::parse_checkpoint(supervise::serialize_checkpoint(cp));
  ASSERT_TRUE(parsed.has_value());

  par::SeedExchange reference_exchange;
  std::unique_ptr<par::Worker> reference =
      make_solo_worker(models, reference_exchange, 7, 128);
  reference->run_range(0, 1800, 1800);

  par::SeedExchange exchange;
  std::unique_ptr<par::Worker> resumed =
      make_solo_worker(models, exchange, 7, 128);
  resumed->restore_state(parsed->workers[0]);
  resumed->run_range(900, 1800, 1800);

  expect_same_trajectory(resumed->fuzzer(), reference->fuzzer());
}

TEST(CheckpointFormat, DedupTablesRoundTripByteIdenticalPastRotation) {
  // capture -> serialize -> parse -> restore -> capture reproduces the
  // image byte for byte: each dedup generation is written in table order
  // and restored into the same slot layout. A small dedup_capacity rotates
  // the generations every 64 fresh packets, so both are populated and the
  // current one has been rebuilt from empty many times.
  const model::DataModelSet models = pits::modbus_pit();
  fuzz::FuzzerConfig config = small_config(7);
  config.dedup_capacity = 128;
  proto::ModbusServer original_target;
  fuzz::Fuzzer original(original_target, models, config);
  original.run(1500);

  supervise::CampaignCheckpoint image;
  image.completed_iterations = 1500;
  image.base_seed = 7;
  image.iterations_per_worker = 3000;
  image.sync_interval = 128;
  image.workers.emplace_back();
  fuzz::FuzzerCheckpoint& captured = image.workers[0].fuzzer;
  captured = original.capture_checkpoint();
  ASSERT_FALSE(captured.dedup_previous.empty());
  ASSERT_FALSE(captured.dedup_current.empty());
  // The zero hash is a legal FNV-1a value and lives outside the slot
  // array; a snapshot lists it first.
  captured.dedup_current.insert(captured.dedup_current.begin(), 0);
  const std::string text = supervise::serialize_checkpoint(image);

  const std::optional<supervise::CampaignCheckpoint> parsed =
      supervise::parse_checkpoint(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->workers[0].fuzzer.dedup_current, captured.dedup_current);
  EXPECT_EQ(parsed->workers[0].fuzzer.dedup_previous,
            captured.dedup_previous);
  proto::ModbusServer resumed_target;
  fuzz::Fuzzer resumed(resumed_target, models, config);
  resumed.restore_checkpoint(parsed->workers[0].fuzzer);

  supervise::CampaignCheckpoint recaptured = image;
  recaptured.workers[0].fuzzer = resumed.capture_checkpoint();
  EXPECT_EQ(recaptured.workers[0].fuzzer.dedup_current,
            captured.dedup_current);
  EXPECT_EQ(supervise::serialize_checkpoint(recaptured), text);
}

TEST(CheckpointFormat, RejectsMalformedInput) {
  const model::DataModelSet models = pits::modbus_pit();
  const std::string text =
      supervise::serialize_checkpoint(mid_campaign_checkpoint(models));

  EXPECT_FALSE(supervise::parse_checkpoint("").has_value());
  EXPECT_FALSE(supervise::parse_checkpoint("not a checkpoint").has_value());
  EXPECT_FALSE(
      supervise::parse_checkpoint("icsfuzz-checkpoint v999\n").has_value());
  // Truncation anywhere in the token stream (a torn write without the
  // atomic rename) must be rejected, never half-loaded.
  for (const double fraction : {0.1, 0.5, 0.9, 0.999}) {
    const std::string torn =
        text.substr(0, static_cast<std::size_t>(text.size() * fraction));
    EXPECT_FALSE(supervise::parse_checkpoint(torn).has_value())
        << "fraction " << fraction;
  }
  // Corrupting a numeric token breaks the parse, not the process.
  std::string corrupt = text;
  const std::size_t digit = corrupt.find_first_of("0123456789", 32);
  ASSERT_NE(digit, std::string::npos);
  corrupt[digit] = 'z';
  EXPECT_FALSE(supervise::parse_checkpoint(corrupt).has_value());
}

TEST(CheckpointFormat, RejectsMalformedDedupBlob) {
  const model::DataModelSet models = pits::modbus_pit();
  const std::string text =
      supervise::serialize_checkpoint(mid_campaign_checkpoint(models));
  const std::size_t blob = text.find("dcur ");
  ASSERT_NE(blob, std::string::npos);
  const std::size_t start = blob + 5;
  ASSERT_NE(text[start], '-') << "the fixture should carry dedup hashes";

  std::string non_hex = text;
  non_hex[start + 3] = 'g';
  EXPECT_FALSE(supervise::parse_checkpoint(non_hex).has_value());
  // A blob that is not a whole number of 16-digit words is torn.
  std::string short_word = text;
  short_word.erase(start, 1);
  EXPECT_FALSE(supervise::parse_checkpoint(short_word).has_value());
  std::string odd = text;
  odd.erase(start, 2);
  EXPECT_FALSE(supervise::parse_checkpoint(odd).has_value());
}

TEST(CheckpointFormat, SaveLoadFileRoundTrip) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-file");
  const std::string path = (dir.path() / "campaign.ckpt").string();

  const supervise::CampaignCheckpoint cp = mid_campaign_checkpoint(models);
  EXPECT_FALSE(supervise::load_checkpoint(path).has_value());  // not yet saved
  ASSERT_FALSE(supervise::save_checkpoint(cp, path).has_value());
  const std::optional<supervise::CampaignCheckpoint> loaded =
      supervise::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(supervise::serialize_checkpoint(*loaded),
            supervise::serialize_checkpoint(cp));
  // No stale temp file left behind by the atomic write cycle.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

// ------------------------------------------------------------ kill -9 oracle

supervise::SupervisorConfig oracle_config(const std::string& checkpoint_path) {
  supervise::SupervisorConfig config;
  config.campaign.workers = 1;
  config.campaign.iterations_per_worker = 12000;
  config.campaign.base_seed = 2026;
  config.campaign.sync_interval = 512;
  config.campaign.fuzzer = small_config(0);  // rng_seed overridden per worker
  config.checkpoint_path = checkpoint_path;
  config.checkpoint_interval = 256;
  return config;
}

/// The tentpole gate: SIGKILL a supervised campaign mid-flight, resume it
/// from the on-disk checkpoint in another process (the parent), and demand
/// the final state be bit-for-bit identical to a never-interrupted run.
TEST(CheckpointResume, SupervisorResumesAfterKillNineBitForBit) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-kill9");
  const std::string checkpoint_path = (dir.path() / "campaign.ckpt").string();
  const fuzz::TargetFactory factory = [] {
    return std::make_unique<proto::ModbusServer>();
  };

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run the campaign until killed. _exit keeps gtest machinery
    // (atexit handlers, result printers) out of the forked copy.
    supervise::CampaignSupervisor victim(factory, models,
                                         oracle_config(checkpoint_path));
    (void)victim.run();
    ::_exit(0);
  }

  // Parent: wait for the first checkpoint to land, then kill without
  // warning. ICSFUZZ_STRESS_SEED (the CI stress lane) varies how deep into
  // the campaign the kill lands, so repeated runs sample different torn
  // states.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!fs::exists(checkpoint_path)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no checkpoint appeared before the kill deadline";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::uint64_t extra_delay_ms = 3;
  if (const char* stress = std::getenv("ICSFUZZ_STRESS_SEED")) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char* c = stress; *c != '\0'; ++c) {
      hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
    }
    extra_delay_ms = hash % 40;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(extra_delay_ms));
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);

  // Resume in THIS process from whatever the child left on disk.
  supervise::CampaignSupervisor resumer(factory, models,
                                        oracle_config(checkpoint_path));
  const supervise::SupervisorResult resumed = resumer.run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed_iterations, 12000u);

  // Uninterrupted reference (plain campaign, same parameters).
  const par::ParallelCampaignResult reference = test::run_parallel_campaign(
      factory, models, oracle_config(checkpoint_path).campaign);

  ASSERT_EQ(resumed.campaign.workers.size(), 1u);
  const par::WorkerReport& actual = resumed.campaign.workers[0];
  const par::WorkerReport& expected = reference.workers[0];
  EXPECT_EQ(actual.executions, expected.executions);
  EXPECT_EQ(actual.paths, expected.paths);
  EXPECT_EQ(actual.edges, expected.edges);
  EXPECT_EQ(actual.unique_crashes, expected.unique_crashes);
  EXPECT_EQ(actual.corpus_size, expected.corpus_size);
  EXPECT_EQ(actual.retained_seeds, expected.retained_seeds);
  ASSERT_EQ(actual.series.size(), expected.series.size());
  for (std::size_t i = 0; i < actual.series.size(); ++i) {
    EXPECT_EQ(actual.series[i].paths, expected.series[i].paths)
        << "series point " << i;
    EXPECT_EQ(actual.series[i].executions, expected.series[i].executions)
        << "series point " << i;
  }
  EXPECT_EQ(resumed.campaign.global_paths, reference.global_paths);
  EXPECT_EQ(resumed.campaign.global_edges, reference.global_edges);

  const std::vector<const fuzz::CrashRecord*> actual_crashes =
      resumed.campaign.pooled_crashes.records();
  const std::vector<const fuzz::CrashRecord*> expected_crashes =
      reference.pooled_crashes.records();
  ASSERT_EQ(actual_crashes.size(), expected_crashes.size());
  for (std::size_t i = 0; i < actual_crashes.size(); ++i) {
    EXPECT_EQ(actual_crashes[i]->kind, expected_crashes[i]->kind);
    EXPECT_EQ(actual_crashes[i]->site, expected_crashes[i]->site);
    EXPECT_EQ(actual_crashes[i]->hits, expected_crashes[i]->hits);
    EXPECT_EQ(actual_crashes[i]->first_execution,
              expected_crashes[i]->first_execution);
    EXPECT_EQ(actual_crashes[i]->trace_hash, expected_crashes[i]->trace_hash);
    EXPECT_EQ(actual_crashes[i]->reproducer, expected_crashes[i]->reproducer);
  }

  // The final chunk's checkpoint marks the campaign complete: a rerun with
  // resume=true is a no-op replaying nothing.
  supervise::CampaignSupervisor rerun(factory, models,
                                      oracle_config(checkpoint_path));
  const supervise::SupervisorResult replay = rerun.run();
  EXPECT_TRUE(replay.resumed);
  EXPECT_EQ(replay.completed_iterations, 12000u);
  EXPECT_EQ(replay.campaign.total_executions, reference.total_executions);
}

TEST(CheckpointResume, SupervisorIgnoresCheckpointOfDifferentCampaign) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-mismatch");
  const std::string checkpoint_path = (dir.path() / "campaign.ckpt").string();
  const fuzz::TargetFactory factory = [] {
    return std::make_unique<proto::ModbusServer>();
  };

  // Park a checkpoint of a DIFFERENT campaign (other seed) at the path.
  supervise::SupervisorConfig other = oracle_config(checkpoint_path);
  other.campaign.base_seed = 1;
  other.campaign.iterations_per_worker = 600;
  other.checkpoint_interval = 0;  // final checkpoint only
  supervise::CampaignSupervisor first(factory, models, other);
  (void)first.run();
  ASSERT_TRUE(fs::exists(checkpoint_path));

  supervise::SupervisorConfig config = oracle_config(checkpoint_path);
  config.campaign.iterations_per_worker = 600;
  supervise::CampaignSupervisor supervisor(factory, models, config);
  const supervise::SupervisorResult result = supervisor.run();
  EXPECT_FALSE(result.resumed);
  EXPECT_NE(result.notes.find("identity mismatch"), std::string::npos);
  EXPECT_EQ(result.completed_iterations, 600u);
}

}  // namespace
}  // namespace icsfuzz
