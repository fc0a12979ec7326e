// PathTracker regression suite for the open-addressing rewrite (the
// ROADMAP's "batched path-tracker probing" follow-on).
//
// The table replaces std::unordered_set but must be observably identical —
// record/contains answers, merge deltas, path counts, snapshot contents —
// so the suite drives randomized operation streams against an
// unordered_set oracle, covers the zero-hash sentinel corner explicitly,
// and proves campaign trajectories are bit-for-bit reproducible (the
// executor's new_path stream is exactly the record() return stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "coverage/path_tracker.hpp"
#include "fuzzer/fuzzer.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "util/flat_u64_set.hpp"
#include "util/rng.hpp"

namespace icsfuzz::cov {
namespace {

std::vector<std::uint64_t> sorted(std::vector<std::uint64_t> values) {
  std::sort(values.begin(), values.end());
  return values;
}

TEST(PathTracker, RandomizedOperationsMatchUnorderedSetOracle) {
  Rng rng(0x9A7B5);
  PathTracker tracker;
  std::unordered_set<std::uint64_t> oracle;
  // A mixed universe: clustered small keys (forcing probe collisions in
  // the low bits), genuinely random 64-bit keys, and the zero hash.
  for (int step = 0; step < 200000; ++step) {
    std::uint64_t hash;
    const int shape = static_cast<int>(rng.below(4));
    if (shape == 0) {
      hash = rng.below(512);  // dense low-bit collisions, includes 0
    } else if (shape == 1) {
      hash = mix64(rng.below(5000));
    } else {
      hash = rng.next_u64();
      if (shape == 3) hash &= 0xFFFF;  // clustered table slots
    }
    ASSERT_EQ(tracker.record(hash), oracle.insert(hash).second)
        << "step " << step << " hash " << hash;
    ASSERT_EQ(tracker.path_count(), oracle.size()) << "step " << step;
    const std::uint64_t probe =
        rng.chance(1, 2) ? hash : rng.next_u64() & 0x3FF;
    ASSERT_EQ(tracker.contains(probe), oracle.contains(probe))
        << "step " << step;
  }
  EXPECT_EQ(sorted(tracker.snapshot()),
            sorted(std::vector<std::uint64_t>(oracle.begin(), oracle.end())));
}

TEST(PathTracker, ZeroHashIsAnOrdinaryPath) {
  PathTracker tracker;
  EXPECT_FALSE(tracker.contains(0));
  EXPECT_TRUE(tracker.record(0));
  EXPECT_FALSE(tracker.record(0));
  EXPECT_TRUE(tracker.contains(0));
  EXPECT_EQ(tracker.path_count(), 1u);
  EXPECT_EQ(tracker.snapshot(), std::vector<std::uint64_t>{0});
  tracker.clear();
  EXPECT_FALSE(tracker.contains(0));
  EXPECT_EQ(tracker.path_count(), 0u);
}

TEST(PathTracker, MergeMatchesOracleAndReportsExactDeltas) {
  Rng rng(0x4242);
  PathTracker a;
  PathTracker b;
  std::unordered_set<std::uint64_t> oracle_a;
  std::unordered_set<std::uint64_t> oracle_b;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t hash = rng.below(8000);  // heavy overlap
    if (rng.chance(1, 2)) {
      a.record(hash);
      oracle_a.insert(hash);
    } else {
      b.record(hash);
      oracle_b.insert(hash);
    }
  }
  a.record(0);
  oracle_a.insert(0);

  std::size_t expected_added = 0;
  for (const std::uint64_t hash : oracle_b) {
    expected_added += oracle_a.insert(hash).second ? 1 : 0;
  }
  EXPECT_EQ(a.merge(b), expected_added);
  EXPECT_EQ(a.path_count(), oracle_a.size());
  EXPECT_EQ(sorted(a.snapshot()),
            sorted(std::vector<std::uint64_t>(oracle_a.begin(),
                                              oracle_a.end())));
  // Idempotent: a second merge adds nothing.
  EXPECT_EQ(a.merge(b), 0u);
  EXPECT_EQ(a.path_count(), oracle_a.size());
}

TEST(PathTracker, GrowthPreservesEveryRecordedPath) {
  // Push far past several doublings and verify membership of everything.
  PathTracker tracker;
  constexpr std::uint64_t kPaths = 100000;
  for (std::uint64_t i = 0; i < kPaths; ++i) {
    ASSERT_TRUE(tracker.record(mix64(i)));
  }
  EXPECT_EQ(tracker.path_count(), kPaths);
  for (std::uint64_t i = 0; i < kPaths; ++i) {
    ASSERT_TRUE(tracker.contains(mix64(i))) << i;
    ASSERT_FALSE(tracker.record(mix64(i))) << i;
  }
}

TEST(FlatU64Set, SnapshotRestoreRebuildsTheSameLayout) {
  // The checkpoint form: a set rebuilt from its snapshot() must snapshot
  // identically (same slot layout, so the same order). Sets at up to the
  // 50% load cap have long probe runs, and many trials make runs that wrap
  // from the last slot to slot 0 — the case a replay from slot 0 breaks.
  Rng rng(0xF1A7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t keys =
        trial < 150 ? 256 + rng.below(257) : 1 + rng.below(20000);
    FlatU64Set set;
    std::unordered_set<std::uint64_t> oracle;
    for (std::size_t i = 0; i < keys; ++i) {
      const std::uint64_t key = rng.chance(1, 500) ? 0 : rng.next_u64();
      set.insert(key);
      oracle.insert(key);
    }
    const std::vector<std::uint64_t> image = set.snapshot();
    FlatU64Set restored;
    restored.restore(image);
    ASSERT_EQ(restored.snapshot(), image) << "trial " << trial;
    ASSERT_EQ(restored.size(), oracle.size()) << "trial " << trial;
    ASSERT_EQ(restored.slot_count(), set.slot_count()) << "trial " << trial;
    for (const std::uint64_t key : oracle) {
      ASSERT_TRUE(restored.contains(key)) << "trial " << trial;
    }
    // The rebuilt layout also evolves identically under further inserts.
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t key = rng.next_u64();
      set.insert(key);
      restored.insert(key);
    }
    ASSERT_EQ(restored.snapshot(), set.snapshot()) << "trial " << trial;
    const FlatU64Set copy = restored;
    ASSERT_EQ(copy.snapshot(), set.snapshot()) << "trial " << trial;
  }
}

TEST(PathTracker, CampaignTrajectoryIsBitForBitReproducible) {
  // The executor's new_path decisions ARE record()'s return values, so two
  // identical fixed-seed campaigns must produce identical new-path streams
  // and path series — the trajectory regression gate for the table
  // rewrite (the sparse/dense/SIMD matrix of test_coverage_sparse.cpp
  // rides on the same tracker and cross-checks it at campaign scale).
  auto run = [] {
    proto::ModbusServer server;
    const model::DataModelSet models = pits::modbus_pit();
    fuzz::FuzzerConfig config;
    config.strategy = fuzz::Strategy::PeachStar;
    config.rng_seed = 7;
    fuzz::Fuzzer fuzzer(server, models, config);
    std::uint64_t fingerprint = 0;
    std::vector<std::size_t> series;
    fuzzer.run(4000, [&](const fuzz::ExecResult& result) {
      fingerprint = fingerprint * 0x100000001B3ULL ^
                    mix64(result.trace_hash ^ (result.new_path ? 1 : 0));
      if (fuzzer.executor().executions() % 500 == 0) {
        series.push_back(fuzzer.path_count());
      }
    });
    return std::pair{fingerprint, series};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_GT(first.second.back(), 0u);
}

}  // namespace
}  // namespace icsfuzz::cov
