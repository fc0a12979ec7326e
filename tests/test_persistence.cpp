// Tests for session persistence: save/load round-trips of the crash store
// and retained seeds, plus replayability of reloaded crashes.
#include <gtest/gtest.h>

#include <filesystem>

#include "distill/distill.hpp"
#include "distill/replay.hpp"
#include "fuzzer/executor.hpp"
#include "fuzzer/persistence.hpp"
#include "pits/pits.hpp"
#include "protocols/lib60870/cs101_server.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "supervise/triage_store.hpp"

namespace icsfuzz::fuzz {
namespace {

namespace fs = std::filesystem;

class SessionDir {
 public:
  SessionDir() {
    path_ = fs::temp_directory_path() /
            ("icsfuzz-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
  }
  ~SessionDir() {
    std::error_code error;
    fs::remove_all(path_, error);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

Fuzzer fuzz_cs101(std::uint64_t iterations) {
  static proto::Cs101Server server;  // reset() by every execution
  static const model::DataModelSet models = pits::cs101_pit();
  FuzzerConfig config;
  config.strategy = Strategy::PeachStar;
  config.rng_seed = 5;
  Fuzzer fuzzer(server, models, config);
  fuzzer.run(iterations);
  return fuzzer;
}

TEST(Persistence, SaveCreatesLayout) {
  SessionDir dir;
  Fuzzer fuzzer = fuzz_cs101(8000);
  const auto error = save_session(fuzzer, dir.str());
  ASSERT_FALSE(error.has_value()) << *error;
  EXPECT_TRUE(fs::exists(fs::path(dir.str()) / "stats.csv"));
  EXPECT_TRUE(fs::exists(fs::path(dir.str()) / "summary.txt"));
  EXPECT_TRUE(fs::is_directory(fs::path(dir.str()) / "crashes"));
  EXPECT_TRUE(fs::is_directory(fs::path(dir.str()) / "seeds"));
}

TEST(Persistence, SeedsRoundTrip) {
  SessionDir dir;
  Fuzzer fuzzer = fuzz_cs101(5000);
  ASSERT_FALSE(save_session(fuzzer, dir.str()).has_value());
  const std::vector<Bytes> seeds = load_seeds(dir.str());
  ASSERT_EQ(seeds.size(), fuzzer.retained_seeds().size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], fuzzer.retained_seeds()[i].bytes) << i;
  }
}

TEST(Persistence, CrashesRoundTripAndReplay) {
  SessionDir dir;
  Fuzzer fuzzer = fuzz_cs101(25000);
  ASSERT_GT(fuzzer.crashes().unique_count(), 0u);
  ASSERT_FALSE(save_session(fuzzer, dir.str()).has_value());

  supervise::TriageStore crashes(dir.str() + "/crashes");
  ASSERT_TRUE(crashes.open()) << crashes.error();
  ASSERT_EQ(crashes.records().size(), fuzzer.crashes().unique_count());
  for (const supervise::TriageRecord& crash : crashes.records()) {
    const std::optional<Bytes> reproducer =
        crashes.load_reproducer(crash.bucket);
    ASSERT_TRUE(reproducer.has_value()) << crash.bucket;
    proto::Cs101Server replay_server;
    Executor executor;
    const ExecResult result = executor.run(replay_server, *reproducer);
    EXPECT_TRUE(result.crashed()) << crash.bucket;
  }
}

TEST(Persistence, SummaryMentionsKeyNumbers) {
  Fuzzer fuzzer = fuzz_cs101(3000);
  const std::string summary = render_summary(fuzzer);
  EXPECT_NE(summary.find("Peach*"), std::string::npos);
  EXPECT_NE(summary.find("paths covered"), std::string::npos);
  EXPECT_NE(summary.find(std::to_string(fuzzer.path_count())),
            std::string::npos);
}

TEST(Persistence, LoadFromMissingDirectoryIsEmpty) {
  EXPECT_TRUE(load_seeds("/nonexistent/session").empty());
  const LoadedCorpus corpus = load_distilled_corpus("/nonexistent/corpus");
  EXPECT_TRUE(corpus.seeds.empty());
  EXPECT_FALSE(corpus.has_manifest);
}

TEST(Persistence, DistilledCorpusRoundTripReplaysIdenticalCoverage) {
  // Distill a cs101 campaign's retained seeds, persist the result, reload
  // it, and replay: edge and path coverage must match the manifest
  // bit-for-bit.
  SessionDir dir;
  const fuzz::TargetFactory factory = [] {
    return std::make_unique<proto::Cs101Server>();
  };
  Fuzzer fuzzer = fuzz_cs101(8000);
  std::vector<Bytes> seeds;
  for (const RetainedSeed& seed : fuzzer.retained_seeds()) {
    seeds.push_back(seed.bytes);
  }
  ASSERT_GT(seeds.size(), 1u);

  const distill::CminResult distilled = distill::cmin(factory, seeds, {});
  const distill::ReplayReport report =
      distill::replay_corpus_sharded(factory, distilled.seeds, 2);
  ASSERT_FALSE(
      save_distilled_corpus(dir.str(), distilled.seeds, report).has_value());

  const LoadedCorpus loaded = load_distilled_corpus(dir.str());
  ASSERT_TRUE(loaded.has_manifest);
  ASSERT_EQ(loaded.seeds.size(), distilled.seeds.size());
  for (std::size_t i = 0; i < loaded.seeds.size(); ++i) {
    EXPECT_EQ(loaded.seeds[i], distilled.seeds[i]) << i;
  }
  EXPECT_EQ(loaded.expected.edges, report.edges);
  EXPECT_EQ(loaded.expected.paths, report.paths);

  const distill::ReplayReport replayed =
      distill::replay_corpus_sharded(factory, loaded.seeds, 2);
  EXPECT_TRUE(replayed.same_coverage(loaded.expected));
  EXPECT_EQ(replayed.crashes, loaded.expected.crashes);

  // Re-saving a smaller corpus into the same directory must fully replace
  // it — stale seed files would falsify the fresh manifest.
  std::vector<Bytes> smaller(distilled.seeds.begin(),
                             distilled.seeds.begin() + 1);
  const auto target = factory();
  const distill::ReplayReport smaller_report =
      distill::replay_corpus(*target, smaller);
  ASSERT_FALSE(
      save_distilled_corpus(dir.str(), smaller, smaller_report).has_value());
  const LoadedCorpus reloaded = load_distilled_corpus(dir.str());
  EXPECT_EQ(reloaded.seeds.size(), 1u);
  EXPECT_EQ(reloaded.expected.edges, smaller_report.edges);
}

TEST(Persistence, SaveToUnwritablePathFails) {
  Fuzzer fuzzer = fuzz_cs101(100);
  const auto error = save_session(fuzzer, "/proc/definitely/not/writable");
  EXPECT_TRUE(error.has_value());
}

}  // namespace
}  // namespace icsfuzz::fuzz
