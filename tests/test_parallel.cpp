// Tests for the parallel campaign subsystem (src/parallel/) and the merge
// primitives it builds on: coverage-map merge algebra, path-set folding,
// corpus synchronization, the sharded seed exchange, and — the load-bearing
// property — W=1 reproducing the sequential engine bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "coverage/coverage_map.hpp"
#include "coverage/instrument.hpp"
#include "coverage/path_tracker.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/fuzzer.hpp"
#include "model/instantiation.hpp"
#include "parallel/parallel_campaign.hpp"
#include "parallel/seed_exchange.hpp"
#include "parallel/worker.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "tests/test_support.hpp"

namespace icsfuzz {
namespace {

using cov::CoverageMap;
using cov::PathTracker;
using fuzz::Fuzzer;
using fuzz::FuzzerConfig;
using fuzz::PuzzleCorpus;
using par::ExchangeSeed;
using par::SeedExchange;

void run_blocks(CoverageMap& map, std::initializer_list<std::uint32_t> blocks) {
  map.begin_execution();
  for (std::uint32_t block : blocks) cov::hit(block);
  map.end_execution();
  map.accumulate();
}

bool accumulated_equal(const CoverageMap& a, const CoverageMap& b) {
  return std::equal(a.accumulated(), a.accumulated() + cov::kMapSize,
                    b.accumulated());
}

// ----------------------------------------------------------- CoverageMap merge

TEST(CoverageMerge, MergeAddsOtherMapsBits) {
  CoverageMap a;
  CoverageMap b;
  run_blocks(a, {10, 20});
  run_blocks(b, {30, 40});
  EXPECT_TRUE(a.merge(b));
  EXPECT_EQ(a.edges_covered(), 4u);
}

TEST(CoverageMerge, MergeIsIdempotent) {
  CoverageMap a;
  CoverageMap b;
  run_blocks(a, {10, 20});
  run_blocks(b, {30, 40});
  EXPECT_TRUE(a.merge(b));
  const std::size_t after_first = a.edges_covered();
  EXPECT_FALSE(a.merge(b));  // second merge adds nothing
  EXPECT_EQ(a.edges_covered(), after_first);
  EXPECT_FALSE(a.merge(a));  // self-merge adds nothing
}

TEST(CoverageMerge, MergeIsCommutative) {
  CoverageMap ab_left;
  CoverageMap ab_right;
  CoverageMap other_a;
  CoverageMap other_b;
  run_blocks(ab_left, {10, 20, 30});
  run_blocks(other_b, {40, 50});
  run_blocks(ab_right, {40, 50});
  run_blocks(other_a, {10, 20, 30});
  ab_left.merge(other_b);   // A ∪ B
  ab_right.merge(other_a);  // B ∪ A
  EXPECT_TRUE(accumulated_equal(ab_left, ab_right));
}

TEST(CoverageMerge, SnapshotRoundTripsThroughMergeAccumulated) {
  CoverageMap source;
  run_blocks(source, {7, 8, 9});
  const std::vector<std::uint8_t> snapshot = source.snapshot_accumulated();
  ASSERT_EQ(snapshot.size(), cov::kMapSize);

  CoverageMap sink;
  EXPECT_TRUE(sink.merge_accumulated(snapshot.data()));
  EXPECT_TRUE(accumulated_equal(source, sink));
  EXPECT_FALSE(sink.merge_accumulated(snapshot.data()));  // idempotent
}

TEST(CoverageMerge, MergeDoesNotTouchTraceBuffer) {
  CoverageMap a;
  CoverageMap b;
  run_blocks(a, {1, 2});
  run_blocks(b, {3, 4});
  const std::uint64_t hash_before = a.trace_hash();
  a.merge(b);
  EXPECT_EQ(a.trace_hash(), hash_before);
}

// ----------------------------------------------------------- PathTracker merge

TEST(PathTrackerMerge, MergeCountsOnlyNewPaths) {
  PathTracker a;
  PathTracker b;
  a.record(1);
  a.record(2);
  b.record(2);
  b.record(3);
  EXPECT_EQ(a.merge(b), 1u);  // only 3 is new
  EXPECT_EQ(a.path_count(), 3u);
  EXPECT_EQ(a.merge(b), 0u);  // idempotent
}

TEST(PathTrackerMerge, SnapshotHoldsAllPaths) {
  PathTracker tracker;
  tracker.record(10);
  tracker.record(20);
  std::vector<std::uint64_t> snapshot = tracker.snapshot();
  std::sort(snapshot.begin(), snapshot.end());
  EXPECT_EQ(snapshot, (std::vector<std::uint64_t>{10, 20}));
}

TEST(PathTrackerMerge, MergeIsCommutativeOnCounts) {
  PathTracker a;
  PathTracker b;
  a.record(1);
  a.record(2);
  b.record(2);
  b.record(3);
  PathTracker a2 = a;
  PathTracker b2 = b;
  a.merge(b);
  b2.merge(a2);
  EXPECT_EQ(a.path_count(), b2.path_count());
}

// ------------------------------------------------------- PuzzleCorpus::merge_from

model::NumberSpec u16() {
  model::NumberSpec spec;
  spec.width = 2;
  return spec;
}

TEST(CorpusMerge, MergeTransfersBothTiers) {
  PuzzleCorpus a;
  PuzzleCorpus b;
  Rng rng(1);
  model::Chunk rule = model::Chunk::number("Addr", u16());
  rule.with_tag("mb-addr");
  b.add(rule, {0x00, 0x42}, rng);

  EXPECT_EQ(a.merge_from(b, rng), 1u);
  ASSERT_NE(a.exact_candidates(rule), nullptr);
  EXPECT_EQ((*a.exact_candidates(rule))[0], (Bytes{0x00, 0x42}));

  // Shape tier transferred too: a same-shape, different-tag consumer hits.
  model::Chunk other = model::Chunk::number("Other", u16());
  other.with_tag("unrelated");
  ASSERT_NE(a.similar_candidates(other), nullptr);
}

TEST(CorpusMerge, MergeDeduplicatesAndIsIdempotent) {
  PuzzleCorpus a;
  PuzzleCorpus b;
  Rng rng(2);
  model::Chunk rule = model::Chunk::number("Addr", u16());
  a.add(rule, {1, 2}, rng);
  b.add(rule, {1, 2}, rng);  // same puzzle on both sides
  b.add(rule, {3, 4}, rng);

  EXPECT_EQ(a.merge_from(b, rng), 1u);  // only {3,4} is new
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.merge_from(b, rng), 0u);  // idempotent
  EXPECT_EQ(a.merge_from(a, rng), 0u);  // self-merge is a no-op
}

TEST(CorpusMerge, MergeRespectsPerRuleCap) {
  fuzz::CorpusConfig small;
  small.per_rule_cap = 4;
  PuzzleCorpus a(small);
  PuzzleCorpus b;
  Rng rng(3);
  model::Chunk rule = model::Chunk::number("Addr", u16());
  for (std::uint8_t i = 0; i < 16; ++i) b.add(rule, {i, i}, rng);

  a.merge_from(b, rng);
  EXPECT_EQ(a.exact_candidates(rule)->size(), 4u);
}

TEST(CorpusMerge, SinceOffersOnlyBucketsChangedAfterIt) {
  PuzzleCorpus a;
  PuzzleCorpus b;
  Rng rng(4);
  model::NumberSpec u32;
  u32.width = 4;
  model::Chunk quiet = model::Chunk::number("Quiet", u32);
  model::Chunk busy = model::Chunk::number("Busy", u16());
  b.add(quiet, {1, 1, 1, 1}, rng);
  b.add(busy, {2, 2}, rng);
  const std::uint64_t since = b.revision();
  b.add(busy, {3, 3}, rng);

  // The busy bucket changed after `since` and is offered whole, its older
  // puzzle included; the quiet one is skipped, in both tiers.
  EXPECT_EQ(a.merge_from(b, rng, since), 2u);
  ASSERT_NE(a.exact_candidates(busy), nullptr);
  EXPECT_EQ(a.exact_candidates(busy)->size(), 2u);
  EXPECT_EQ(a.exact_candidates(quiet), nullptr);
  EXPECT_EQ(a.similar_candidates(quiet), nullptr);
  ASSERT_NE(a.similar_candidates(busy), nullptr);
  EXPECT_EQ(a.similar_candidates(busy)->size(), 2u);

  EXPECT_EQ(a.merge_from(b, rng, b.revision()), 0u);  // nothing since
  EXPECT_EQ(a.merge_from(b, rng), 1u);  // since = 0: every bucket
  EXPECT_NE(a.exact_candidates(quiet), nullptr);
}

// --------------------------------------------------------------- SeedExchange

TEST(SeedExchange, PublishDeduplicatesContent) {
  SeedExchange exchange;
  EXPECT_TRUE(exchange.publish(0, {1, 2, 3}, "m", 10));
  EXPECT_FALSE(exchange.publish(1, {1, 2, 3}, "m", 20));  // same payload
  EXPECT_TRUE(exchange.publish(1, {1, 2, 4}, "m", 21));
  EXPECT_EQ(exchange.published_count(), 2u);
}

TEST(SeedExchange, PullSkipsOwnSeedsAndAdvancesCursor) {
  SeedExchange exchange;
  exchange.publish(0, {1}, "a", 1);
  exchange.publish(1, {2}, "b", 2);
  exchange.publish(2, {3}, "c", 3);

  SeedExchange::Cursor cursor;
  std::vector<ExchangeSeed> pulled;
  EXPECT_EQ(exchange.pull(1, cursor, pulled), 2u);  // skips own {2}
  for (const ExchangeSeed& seed : pulled) {
    EXPECT_NE(seed.origin_worker, 1u);
  }

  // Nothing new: the cursor saw everything.
  pulled.clear();
  EXPECT_EQ(exchange.pull(1, cursor, pulled), 0u);

  // New publications show up on the next pull only.
  exchange.publish(0, {4}, "d", 4);
  EXPECT_EQ(exchange.pull(1, cursor, pulled), 1u);
  EXPECT_EQ(pulled[0].bytes, (Bytes{4}));
}

TEST(SeedExchange, CoverageMergesGlobally) {
  SeedExchange exchange;
  CoverageMap a;
  CoverageMap b;
  PathTracker pa;
  PathTracker pb;
  run_blocks(a, {10, 20});
  run_blocks(b, {20, 30});
  pa.record(111);
  pb.record(111);
  pb.record(222);

  exchange.merge_coverage(a, pa);
  exchange.merge_coverage(b, pb);
  EXPECT_EQ(exchange.global_paths(), 2u);
  EXPECT_GE(exchange.global_edges(), 3u);

  // Re-merging is idempotent.
  exchange.merge_coverage(a, pa);
  EXPECT_EQ(exchange.global_paths(), 2u);
}

TEST(SeedExchange, PuzzlePoolRoundTrips) {
  SeedExchange exchange;
  PuzzleCorpus source;
  PuzzleCorpus sink;
  Rng rng(7);
  model::Chunk rule = model::Chunk::number("Addr", u16());
  source.add(rule, {0xAA, 0xBB}, rng);

  exchange.publish_puzzles(source);
  std::uint64_t since = 0;
  EXPECT_EQ(exchange.import_puzzles(sink, rng, since), 1u);
  ASSERT_NE(sink.exact_candidates(rule), nullptr);
  EXPECT_GT(since, 0u);
  EXPECT_EQ(exchange.import_puzzles(sink, rng, since), 0u);  // idempotent
}

TEST(SeedExchange, ConcurrentPublishersDeduplicateExactlyOnce) {
  SeedExchange exchange;
  constexpr int kThreads = 4;
  constexpr std::uint8_t kSeeds = 32;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&exchange, t] {
      // All threads publish the same 32 payloads.
      for (std::uint8_t i = 0; i < kSeeds; ++i) {
        exchange.publish(static_cast<std::size_t>(t), {i, 0x5A}, "m", i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(exchange.published_count(), static_cast<std::size_t>(kSeeds));
}

// ----------------------------------------------------------- W=1 determinism

fuzz::FuzzerConfig small_config(std::uint64_t seed) {
  FuzzerConfig config;
  config.rng_seed = seed;
  config.stats_interval = 200;
  return config;
}

TEST(WorkerSync, FirstPullPublishAndImportAfterRestoreAreFull) {
  const model::DataModelSet models = pits::modbus_pit();
  par::WorkerConfig config;
  config.id = 0;
  config.worker_count = 2;
  config.sync_interval = 200;
  config.fuzzer = small_config(par::worker_seed(31, 0));

  // Two syncs against a first exchange advance the seed cursor and both
  // puzzle revisions.
  SeedExchange first;
  par::Worker before(config, std::make_unique<proto::ModbusServer>(), models,
                     first);
  before.run_range(0, 400, 2000);
  const par::WorkerState state = before.capture_state();
  ASSERT_GT(state.imported_global_revision, 2u);

  // The resumed process's exchange: a peer's seeds and one peer puzzle, at
  // shard positions and a revision the old cursors have already passed.
  SeedExchange fresh;
  constexpr std::uint8_t kPeerSeeds = 16;
  for (std::uint8_t i = 0; i < kPeerSeeds; ++i) {
    ASSERT_TRUE(fresh.publish(1, {0x7E, i, 0x7E}, "peer", i));
  }
  PuzzleCorpus peer;
  Rng rng(8);
  model::Chunk rule = model::Chunk::number("PeerOnly", u16());
  rule.with_tag("peer-only");
  peer.add(rule, {0xAB, 0xCD}, rng);
  fresh.publish_puzzles(peer);

  par::Worker after(config, std::make_unique<proto::ModbusServer>(), models,
                    fresh);
  after.restore_state(state);
  after.run_range(400, 600, 2000);  // one sync, at 600

  EXPECT_EQ(after.seeds_imported(), state.imported + kPeerSeeds);
  EXPECT_GE(after.puzzles_imported(), state.puzzles_imported + 1);
  EXPECT_NE(after.fuzzer().corpus().exact_candidates(rule), nullptr);
  // The publish was full too: the fresh pool holds the whole local corpus.
  PuzzleCorpus pool;
  std::uint64_t since = 0;
  fresh.import_puzzles(pool, rng, since);
  EXPECT_EQ(pool.size(), after.fuzzer().corpus().size());
}

TEST(ParallelDeterminism, SoloWorkerReproducesSequentialFuzzerBitForBit) {
  const model::DataModelSet models = pits::modbus_pit();
  constexpr std::uint64_t kIterations = 2000;
  constexpr std::uint64_t kSeed = 1234;

  // Sequential reference run.
  proto::ModbusServer sequential_target;
  Fuzzer sequential(sequential_target, models, small_config(kSeed));
  sequential.run(kIterations);

  // One parallel worker, syncing every 256 executions with no peers.
  SeedExchange exchange;
  par::WorkerConfig worker_config;
  worker_config.id = 0;
  worker_config.worker_count = 1;
  worker_config.sync_interval = 256;
  worker_config.fuzzer = small_config(par::worker_seed(kSeed, 0));
  par::Worker worker(worker_config, std::make_unique<proto::ModbusServer>(),
                     models, exchange);
  worker.run_range(0, kIterations, kIterations);
  const Fuzzer& parallel = worker.fuzzer();

  // worker_seed(s, 0) == s by construction.
  EXPECT_EQ(par::worker_seed(kSeed, 0), kSeed);

  // Identical campaign outcome, not merely similar.
  EXPECT_EQ(parallel.path_count(), sequential.path_count());
  EXPECT_EQ(parallel.executor().edge_count(), sequential.executor().edge_count());
  EXPECT_EQ(parallel.executor().executions(), sequential.executor().executions());
  EXPECT_EQ(parallel.crashes().unique_count(), sequential.crashes().unique_count());
  EXPECT_EQ(parallel.corpus().size(), sequential.corpus().size());
  ASSERT_EQ(parallel.retained_seeds().size(), sequential.retained_seeds().size());
  for (std::size_t i = 0; i < parallel.retained_seeds().size(); ++i) {
    EXPECT_EQ(parallel.retained_seeds()[i].bytes,
              sequential.retained_seeds()[i].bytes);
  }
  ASSERT_EQ(parallel.stats().checkpoints().size(),
            sequential.stats().checkpoints().size());
  for (std::size_t i = 0; i < parallel.stats().checkpoints().size(); ++i) {
    EXPECT_EQ(parallel.stats().checkpoints()[i].paths,
              sequential.stats().checkpoints()[i].paths);
  }

  // The exchange carried the solo worker's numbers.
  EXPECT_EQ(exchange.global_paths(), sequential.path_count());
}

TEST(ParallelDeterminism, ParallelCampaignW1MatchesSequential) {
  const model::DataModelSet models = pits::modbus_pit();
  proto::ModbusServer sequential_target;
  Fuzzer sequential(sequential_target, models, small_config(77));
  sequential.run(1500);

  par::ParallelCampaignConfig config;
  config.workers = 1;
  config.iterations_per_worker = 1500;
  config.base_seed = 77;
  config.sync_interval = 500;
  config.fuzzer = small_config(0);  // rng_seed overridden per worker
  const par::ParallelCampaignResult result = test::run_parallel_campaign(
      [] { return std::make_unique<proto::ModbusServer>(); }, models, config);

  ASSERT_EQ(result.workers.size(), 1u);
  EXPECT_EQ(result.workers[0].paths, sequential.path_count());
  EXPECT_EQ(result.workers[0].edges, sequential.executor().edge_count());
  EXPECT_EQ(result.global_paths, sequential.path_count());
  EXPECT_EQ(result.global_edges, sequential.executor().edge_count());
  EXPECT_EQ(result.total_executions, sequential.executor().executions());
  EXPECT_EQ(result.pooled_crashes.unique_count(),
            sequential.crashes().unique_count());
}

// --------------------------------------------------------- multi-worker runs

TEST(ParallelCampaign, MultiWorkerRunsAndSyncs) {
  const model::DataModelSet models = pits::modbus_pit();
  par::ParallelCampaignConfig config;
  config.workers = 3;
  config.iterations_per_worker = 800;
  config.base_seed = 9;
  config.sync_interval = 200;
  config.fuzzer = small_config(0);
  const par::ParallelCampaignResult result = test::run_parallel_campaign(
      [] { return std::make_unique<proto::ModbusServer>(); }, models, config);

  ASSERT_EQ(result.workers.size(), 3u);
  EXPECT_EQ(result.total_executions, 3u * 800u);
  // Global (deduplicated) coverage is at least any single worker's and at
  // most the sum of all workers'.
  std::size_t max_worker_paths = 0;
  std::size_t sum_worker_paths = 0;
  for (const par::WorkerReport& report : result.workers) {
    max_worker_paths = std::max(max_worker_paths, report.paths);
    sum_worker_paths += report.paths;
    EXPECT_EQ(report.executions, 800u);
  }
  EXPECT_GE(result.global_paths, max_worker_paths);
  EXPECT_LE(result.global_paths, sum_worker_paths);
  // Workers published valuable seeds and imported peers' discoveries.
  EXPECT_GT(result.seeds_published, 0u);
  std::uint64_t total_imported = 0;
  for (const par::WorkerReport& report : result.workers) {
    total_imported += report.seeds_imported;
  }
  EXPECT_GT(total_imported, 0u);
}

TEST(ParallelCampaign, DistinctWorkersUseDistinctSeeds) {
  EXPECT_NE(par::worker_seed(1, 0), par::worker_seed(1, 1));
  EXPECT_NE(par::worker_seed(1, 1), par::worker_seed(1, 2));
  EXPECT_EQ(par::worker_seed(42, 0), 42u);
}

// ------------------------------------------------------------- fuzzer hooks

TEST(FuzzerHooks, DrainNewRetainedIsACursor) {
  const model::DataModelSet models = pits::modbus_pit();
  proto::ModbusServer target;
  Fuzzer fuzzer(target, models, small_config(5));
  fuzzer.run(600);

  std::vector<fuzz::RetainedSeed> first = fuzzer.drain_new_retained();
  EXPECT_EQ(first.size(), fuzzer.retained_seeds().size());
  EXPECT_TRUE(fuzzer.drain_new_retained().empty());  // nothing new since
}

TEST(FuzzerHooks, ImportedSeedRunsBeforeGeneration) {
  const model::DataModelSet models = pits::modbus_pit();
  proto::ModbusServer target;
  Fuzzer fuzzer(target, models, small_config(6));

  const Bytes seed = model::default_instance(models.at(0)).serialize();
  fuzzer.import_external_seed(seed);
  EXPECT_EQ(fuzzer.imported_pending(), 1u);
  fuzzer.step();
  EXPECT_EQ(fuzzer.imported_pending(), 0u);
  // The imported packet went through the executor.
  EXPECT_EQ(fuzzer.executor().executions(), 1u);
}

}  // namespace
}  // namespace icsfuzz
