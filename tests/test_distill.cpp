// Tests for src/distill/: greedy set-cover corpus minimization (cmin),
// trace-invariant seed trimming (tmin), sharded replay tracing, the
// deterministic replay verifier, and the auto-distill / parallel-campaign
// wiring.
#include <gtest/gtest.h>

#include <memory>

#include "distill/distill.hpp"
#include "distill/replay.hpp"
#include "fuzzer/fuzzer.hpp"
#include "model/instantiation.hpp"
#include "parallel/parallel_campaign.hpp"
#include "pits/pits.hpp"
#include "protocols/lib60870/cs101_server.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "tests/test_support.hpp"

namespace icsfuzz::distill {
namespace {

fuzz::TargetFactory modbus_factory() {
  return [] { return std::make_unique<proto::ModbusServer>(); };
}

const model::DataModelSet& modbus_models() {
  static const model::DataModelSet models = pits::modbus_pit();
  return models;
}

/// Valuable seeds of two overlapping Peach* campaigns, then the whole pool
/// tripled — the redundancy profile of a long-running campaign that keeps
/// re-discovering known coverage.
std::vector<Bytes> redundant_corpus() {
  std::vector<Bytes> pool;
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    proto::ModbusServer server;
    fuzz::FuzzerConfig config;
    config.strategy = fuzz::Strategy::PeachStar;
    config.rng_seed = seed;
    fuzz::Fuzzer fuzzer(server, modbus_models(), config);
    fuzzer.run(4000);
    for (const fuzz::RetainedSeed& retained : fuzzer.retained_seeds()) {
      pool.push_back(retained.bytes);
    }
  }
  std::vector<Bytes> corpus;
  for (int copy = 0; copy < 3; ++copy) {
    corpus.insert(corpus.end(), pool.begin(), pool.end());
  }
  return corpus;
}

TEST(Cmin, ShrinksRedundantCorpusWithBitIdenticalCoverage) {
  const std::vector<Bytes> corpus = redundant_corpus();
  ASSERT_GE(corpus.size(), 30u);

  CminConfig config;
  config.workers = 2;
  const CminResult result = cmin(modbus_factory(), corpus, config);

  ASSERT_FALSE(result.seeds.empty());
  EXPECT_EQ(result.stats.seeds_before, corpus.size());
  EXPECT_EQ(result.stats.seeds_after, result.seeds.size());
  // The acceptance bar: at least a 40% reduction on the redundant corpus.
  EXPECT_GE(result.stats.reduction_ratio(), 0.40)
      << result.stats.seeds_after << " of " << result.stats.seeds_before;

  // The replay verifier must see the bit-identical edge map and path set.
  const ReplayReport full =
      replay_corpus_sharded(modbus_factory(), corpus, 2);
  const ReplayReport distilled =
      replay_corpus_sharded(modbus_factory(), result.seeds, 2);
  EXPECT_EQ(full.edges, distilled.edges);
  EXPECT_EQ(full.paths, distilled.paths);
  EXPECT_EQ(full.map_fingerprint, distilled.map_fingerprint);
  EXPECT_EQ(full.path_fingerprint, distilled.path_fingerprint);
  EXPECT_TRUE(full.same_coverage(distilled));
}

TEST(Cmin, EveryKeptSeedIsLoadBearing) {
  const std::vector<Bytes> corpus = redundant_corpus();
  CminResult result = cmin(modbus_factory(), corpus, {});
  ASSERT_GT(result.seeds.size(), 1u);

  const ReplayReport full = replay_corpus_sharded(modbus_factory(), corpus, 1);
  // Dropping any seed chosen by the greedy cover must lose coverage: each
  // pick contributed at least one uncovered element.
  std::vector<Bytes> crippled = result.seeds;
  crippled.pop_back();
  const auto target = modbus_factory()();
  const ReplayReport partial = replay_corpus(*target, crippled);
  EXPECT_FALSE(full.same_coverage(partial));
}

TEST(Cmin, DeterministicAndIdempotent) {
  const std::vector<Bytes> corpus = redundant_corpus();
  const CminResult first = cmin(modbus_factory(), corpus, {});
  const CminResult second = cmin(modbus_factory(), corpus, {});
  EXPECT_EQ(first.kept, second.kept);

  // Distilling a distilled corpus changes nothing.
  const CminResult again = cmin(modbus_factory(), first.seeds, {});
  EXPECT_EQ(again.seeds.size(), first.seeds.size());
}

TEST(Cmin, EmptyCorpus) {
  const CminResult result = cmin(modbus_factory(), {}, {});
  EXPECT_TRUE(result.kept.empty());
  EXPECT_TRUE(result.seeds.empty());
  EXPECT_EQ(result.stats.reduction_ratio(), 0.0);
}

TEST(Trace, ShardedCollectionMatchesSequential) {
  const std::vector<Bytes> corpus = redundant_corpus();
  proto::ModbusServer server;
  const std::vector<SeedTrace> sequential = collect_traces(server, corpus);
  const std::vector<SeedTrace> sharded =
      collect_traces_sharded(modbus_factory(), corpus, 4);
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].index, sharded[i].index);
    EXPECT_EQ(sequential[i].trace_hash, sharded[i].trace_hash) << i;
    EXPECT_EQ(sequential[i].elements, sharded[i].elements) << i;
    EXPECT_EQ(sequential[i].crashed, sharded[i].crashed) << i;
  }
}

TEST(Tmin, RemovesPaddingWhileTraceHashStaysInvariant) {
  proto::ModbusServer server;
  const model::DataModel& model = modbus_models().models().front();
  Bytes padded = model::default_instance(model).serialize();
  const std::size_t real_size = padded.size();
  padded.insert(padded.end(), 24, 0x5A);  // trailing junk past the ADU

  // Precondition of the shrink expectation: the server ignores the junk.
  fuzz::Executor probe;
  const std::uint64_t clean_hash =
      probe.run(server, Bytes(padded.begin(),
                              padded.begin() +
                                  static_cast<std::ptrdiff_t>(real_size)))
          .trace_hash;
  const std::uint64_t padded_hash = probe.run(server, padded).trace_hash;
  ASSERT_EQ(clean_hash, padded_hash);

  const TminResult trimmed = tmin(server, padded);
  EXPECT_TRUE(trimmed.shrunk());
  EXPECT_LE(trimmed.seed.size(), real_size);
  EXPECT_GT(trimmed.executions, 1u);

  // The invariant the trimmer promises: identical whole-trace hash.
  fuzz::Executor verify;
  EXPECT_EQ(verify.run(server, trimmed.seed).trace_hash, padded_hash);
}

TEST(Replay, ReportFromTracesMatchesLiveReplay) {
  const std::vector<Bytes> corpus = redundant_corpus();
  const std::vector<SeedTrace> traces =
      collect_traces_sharded(modbus_factory(), corpus, 2);
  const ReplayReport derived = report_from_traces(traces);
  const ReplayReport live = replay_corpus_sharded(modbus_factory(), corpus, 2);
  EXPECT_TRUE(derived.same_coverage(live));
  EXPECT_EQ(derived.crashes, live.crashes);
  EXPECT_EQ(derived.seeds, live.seeds);
  EXPECT_EQ(derived.executions, live.executions);
}

TEST(Replay, DeterministicAcrossRounds) {
  const std::vector<Bytes> corpus = redundant_corpus();
  EXPECT_TRUE(verify_deterministic(modbus_factory(), corpus, 3));
}

TEST(Replay, CrashReproductionFromCrashDb) {
  proto::Cs101Server server;
  const model::DataModelSet models = pits::cs101_pit();
  fuzz::FuzzerConfig config;
  config.strategy = fuzz::Strategy::PeachStar;
  config.rng_seed = 5;
  fuzz::Fuzzer fuzzer(server, models, config);
  fuzzer.run(25000);
  ASSERT_GT(fuzzer.crashes().unique_count(), 0u);

  for (const fuzz::CrashRecord* record : fuzzer.crashes().records()) {
    proto::Cs101Server replay_server;
    const CrashReplay replay = replay_crash(replay_server, record->reproducer);
    EXPECT_TRUE(replay.reproduced);
    ASSERT_FALSE(replay.faults.empty());
    EXPECT_EQ(replay.faults.front().kind, record->kind);
    EXPECT_EQ(replay.faults.front().site, record->site);
  }
}

TEST(Replay, CrackIntoCorpusWarmStartsPuzzleStore) {
  const std::vector<Bytes> corpus = redundant_corpus();
  const CminResult result = cmin(modbus_factory(), corpus, {});
  fuzz::PuzzleCorpus puzzles;
  Rng rng(7);
  const std::size_t added =
      crack_into_corpus(modbus_models(), result.seeds, puzzles, rng);
  EXPECT_GT(added, 0u);
  EXPECT_FALSE(puzzles.empty());
}

TEST(AutoDistill, PrunesRetainedPoolWithoutChangingTrajectory) {
  proto::ModbusServer plain_server;
  fuzz::FuzzerConfig plain_config;
  plain_config.rng_seed = 21;
  fuzz::Fuzzer plain(plain_server, modbus_models(), plain_config);
  plain.run(6000);

  proto::ModbusServer distilling_server;
  fuzz::FuzzerConfig distilling_config;
  distilling_config.rng_seed = 21;
  distilling_config.distill_interval = 1000;
  fuzz::Fuzzer distilling(distilling_server, modbus_models(),
                          distilling_config);
  distilling.run(6000);

  EXPECT_GE(distilling.distill_passes(), 5u);
  // Replays draw no randomness, so the campaign trajectory is identical.
  EXPECT_EQ(plain.path_count(), distilling.path_count());
  EXPECT_EQ(plain.executor().edge_count(), distilling.executor().edge_count());
  EXPECT_EQ(plain.crashes().unique_count(),
            distilling.crashes().unique_count());
  EXPECT_EQ(plain.corpus().size(), distilling.corpus().size());
  // Only the retained pool shrinks: every drop is accounted for (neither
  // run reaches the eviction cap at this budget).
  EXPECT_EQ(distilling.retained_seeds().size() + distilling.distill_dropped(),
            plain.retained_seeds().size());
}

TEST(ParallelDistill, FinalDistilledCorpusReplaysGlobalEdgeMap) {
  par::ParallelCampaignConfig config;
  config.workers = 2;
  config.iterations_per_worker = 3000;
  config.base_seed = 1000;
  config.distill_final = true;
  const par::ParallelCampaignResult result =
      test::run_parallel_campaign(modbus_factory(), modbus_models(), config);

  ASSERT_FALSE(result.distilled_corpus.empty());
  EXPECT_GT(result.distill_stats.seeds_before,
            result.distill_stats.seeds_after);

  // Every accumulated edge of a Peach* campaign came from an execution
  // that was retained as a valuable seed, so the distilled corpus must
  // replay the campaign's global edge map exactly.
  const ReplayReport replayed =
      replay_corpus_sharded(modbus_factory(), result.distilled_corpus, 2);
  EXPECT_EQ(replayed.edges, result.global_edges);
}

}  // namespace
}  // namespace icsfuzz::distill
