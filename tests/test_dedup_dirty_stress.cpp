// Randomized stress coverage for two bounded-state mechanisms the hot
// path leans on, closing the gap noted in test_hotpath_alloc.cpp (which
// pins their deterministic corner cases only):
//
//   * GenerationalDedup's half-clear rotation, driven with adversarial
//     randomized insert streams against an exact two-generation oracle
//     model plus the properties the fuzzer actually relies on (the most
//     recent capacity/2 distinct packets always stay deduplicated, memory
//     stays bounded, evicted hashes become insertable again), and the
//     fuzzer's probe-at-generation, insert-at-commit path checked against
//     a plain-insert twin through growth, rotation and restore.
//
//   * The reader-side dirty-list rebuild (CoverageMap::adopt_external),
//     hammered with adversarial external word patterns — boundary words 0
//     and 8191, single-byte cells at word edges, dense smears, saturated
//     counters, repeated adopt/clear cycles — on every runnable kernel,
//     checking the rebuilt list stays complete, duplicate-free, and
//     analysis-equivalent to in-process tracing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "coverage/instrument.hpp"
#include "fuzzer/dedup.hpp"
#include "tests/test_support.hpp"
#include "util/flat_u64_set.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

using test::dirty_list_defect;
using test::emit_pattern;
using test::runnable_kernels;
using Pattern = test::CellPattern;

// -- GenerationalDedup stress. --------------------------------------------

/// Exact reference model of the documented semantics: two generations,
/// inserts into `current`, rotation into `previous` at capacity/2.
class DedupOracle {
 public:
  explicit DedupOracle(std::size_t capacity)
      : capacity_(capacity < 2 ? 2 : capacity) {}

  bool insert(std::uint64_t hash) {
    if (contains(hash)) return false;
    current_.insert(hash);
    if (current_.size() >= capacity_ / 2) {
      previous_ = std::move(current_);
      current_.clear();
    }
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t hash) const {
    return current_.contains(hash) || previous_.contains(hash);
  }

  [[nodiscard]] std::size_t size() const {
    return current_.size() + previous_.size();
  }

 private:
  std::size_t capacity_;
  std::unordered_set<std::uint64_t> current_;
  std::unordered_set<std::uint64_t> previous_;
};

TEST(GenerationalDedupStress, RandomizedStreamsMatchTheOracle) {
  Rng rng(0xDED0);
  for (const std::size_t capacity : {std::size_t{2}, std::size_t{3},
                                     std::size_t{8}, std::size_t{64},
                                     std::size_t{1000}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    fuzz::GenerationalDedup dedup(capacity);
    DedupOracle oracle(capacity);
    // A hash universe a few times the capacity makes repeats, rotations
    // and re-insertions of evicted hashes all common.
    const std::uint64_t universe = 3 * capacity + 7;
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t hash = 1 + rng.below(universe);
      ASSERT_EQ(dedup.insert(hash), oracle.insert(hash)) << "step " << step;
      ASSERT_EQ(dedup.size(), oracle.size()) << "step " << step;
      ASSERT_LE(dedup.size(), dedup.capacity()) << "step " << step;
      // Spot-check membership agreement on a random probe.
      const std::uint64_t probe = 1 + rng.below(universe);
      ASSERT_EQ(dedup.contains(probe), oracle.contains(probe))
          << "step " << step;
    }
  }
}

TEST(GenerationalDedupStress, RecentHalfAlwaysStaysDeduplicated) {
  // The load-bearing guarantee: at any moment the most recent capacity/2
  // distinct hashes are still known. Streams of distinct hashes make the
  // window exact.
  const std::size_t capacity = 128;
  fuzz::GenerationalDedup dedup(capacity);
  std::vector<std::uint64_t> inserted;
  Rng rng(0x5115);
  for (std::uint64_t h = 1; h <= 5000; ++h) {
    // Mix in re-inserts of known-recent hashes; they must never count as
    // fresh or disturb the window.
    if (!inserted.empty() && rng.chance(1, 4)) {
      const std::size_t back =
          rng.index(std::min<std::size_t>(inserted.size(), capacity / 4));
      ASSERT_FALSE(dedup.insert(inserted[inserted.size() - 1 - back]));
      continue;
    }
    ASSERT_TRUE(dedup.insert(h));
    inserted.push_back(h);
    const std::size_t window = std::min<std::size_t>(
        inserted.size(), capacity / 2);
    for (std::size_t i = 0; i < window; ++i) {
      ASSERT_TRUE(dedup.contains(inserted[inserted.size() - 1 - i]))
          << "recent hash " << inserted[inserted.size() - 1 - i]
          << " evicted too early after " << inserted.size() << " inserts";
    }
    ASSERT_LE(dedup.size(), capacity);
  }
}

TEST(GenerationalDedupStress, EvictedHashesBecomeInsertableAgain) {
  const std::size_t capacity = 64;
  fuzz::GenerationalDedup dedup(capacity);
  for (std::uint64_t h = 1; h <= 32; ++h) dedup.insert(h);
  // Two full generations of fresh hashes must evict the first batch.
  for (std::uint64_t h = 1000; h < 1000 + capacity; ++h) dedup.insert(h);
  for (std::uint64_t h = 1; h <= 32; ++h) {
    ASSERT_TRUE(dedup.insert(h)) << "hash " << h << " still resident";
  }
}

TEST(GenerationalDedupStress, JournalReplayRebuildsTheTablesSlotForSlot) {
  // What a checkpoint segment relies on: after a full snapshot, the
  // journal lists exactly the fresh inserts in order, and replaying it into
  // tables restored from that snapshot reproduces the live tables' slot
  // layout. A rotation or an overflow must invalidate the journal instead.
  Rng rng(0x10A7);
  const std::size_t capacity = 4096;
  fuzz::GenerationalDedup dedup(capacity);
  std::vector<std::uint64_t> recent;
  for (int round = 0; round < 200; ++round) {
    FlatU64Set current;
    FlatU64Set previous;
    current.restore(dedup.current_generation().snapshot());
    previous.restore(dedup.previous_generation().snapshot());
    const std::size_t room = 1 + rng.index(600);
    dedup.arm_journal(room);
    std::vector<std::uint64_t> fresh;
    bool rotated = false;
    const std::size_t inserts = rng.index(700);
    for (std::size_t i = 0; i < inserts; ++i) {
      // Repeats of recent hashes (never journaled), a rare zero hash and
      // fresh random ones.
      std::uint64_t hash = rng.next_u64();
      if (!recent.empty() && rng.chance(1, 4)) hash = rng.pick(recent);
      if (rng.chance(1, 500)) hash = 0;
      const std::size_t before = dedup.current_generation().size();
      if (!dedup.insert(hash)) continue;
      fresh.push_back(hash);
      recent.push_back(hash);
      rotated = rotated || dedup.current_generation().size() <= before;
    }
    const bool expect_valid = !rotated && fresh.size() <= room;
    ASSERT_EQ(dedup.journal_valid(), expect_valid) << "round " << round;
    if (!expect_valid) continue;
    ASSERT_EQ(std::vector<std::uint64_t>(dedup.journal().begin(),
                                         dedup.journal().end()),
              fresh);
    for (const std::uint64_t hash : dedup.journal()) current.insert(hash);
    ASSERT_EQ(current.snapshot(), dedup.current_generation().snapshot())
        << "round " << round;
    ASSERT_EQ(previous.snapshot(), dedup.previous_generation().snapshot());
  }
  // A restore invalidates whatever the journal held.
  dedup.arm_journal(16);
  dedup.restore_generations({}, {});
  EXPECT_FALSE(dedup.journal_valid());
}

TEST(GenerationalDedupStress, ProbedInsertsMatchThePlainInsertTwin) {
  // The fuzzer probes a packet's hash when it generates it and inserts it
  // when it commits, storing into the probed slot. Between the two, other
  // commits insert (sometimes the same hash), tables grow, generations
  // rotate and checkpoints restore. Whatever happened, the tables and the
  // journal must stay exactly those of a twin that only calls insert().
  Rng rng(0x5107);
  const std::size_t capacity = 6000;  // rotates every 3000 fresh hashes
  fuzz::GenerationalDedup probed(capacity);
  fuzz::GenerationalDedup plain(capacity);
  struct Pending {
    std::uint64_t hash;
    fuzz::GenerationalDedup::Probe probe;
  };
  std::deque<Pending> window;
  std::vector<std::uint64_t> recent;
  std::size_t stale_duplicates = 0;
  std::size_t same_table = 0;  // commits that may store into the probed slot
  std::size_t rotations = 0;
  const auto next_hash = [&] {
    if (!recent.empty() && rng.chance(1, 5)) return rng.pick(recent);
    if (!window.empty() && rng.chance(1, 10)) return rng.pick(window).hash;
    if (rng.chance(1, 2000)) return std::uint64_t{0};
    return rng.next_u64();
  };
  const auto insert_both = [&](std::uint64_t hash, const auto& insert) {
    const std::size_t before = plain.current_generation().size();
    const bool fresh = plain.insert(hash);
    ASSERT_EQ(insert(), fresh);
    if (fresh) recent.push_back(hash);
    if (fresh && plain.current_generation().size() <= before) ++rotations;
  };
  for (int step = 0; step < 40000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint64_t action = rng.below(100);
    if (action < 45) {
      // Generate: probe, and keep the probe while the packet is in flight.
      Pending pending{next_hash(), {}};
      ASSERT_EQ(probed.contains(pending.hash, pending.probe),
                plain.contains(pending.hash));
      if (!plain.contains(pending.hash) && window.size() < 8) {
        window.push_back(pending);
      }
    } else if (action < 90) {
      // Commit the oldest in-flight packet through its probe.
      if (window.empty()) continue;
      const Pending head = window.front();
      window.pop_front();
      if (plain.contains(head.hash)) ++stale_duplicates;
      if (probed.current_generation().slot_count() == head.probe.slot_count) {
        ++same_table;
      }
      insert_both(head.hash,
                  [&] { return probed.insert(head.hash, head.probe); });
    } else if (action < 99) {
      // Some other insert between a probe and its commit.
      const std::uint64_t hash = next_hash();
      insert_both(hash, [&] { return probed.insert(hash); });
    } else if (rng.chance(1, 4)) {
      // A checkpoint restore under the in-flight probes.
      const std::vector<std::uint64_t> current =
          plain.current_generation().snapshot();
      const std::vector<std::uint64_t> previous =
          plain.previous_generation().snapshot();
      probed.restore_generations(current, previous);
      plain.restore_generations(current, previous);
    } else {
      const std::size_t room = 1 + rng.index(2000);
      probed.arm_journal(room);
      plain.arm_journal(room);
    }
    ASSERT_EQ(probed.size(), plain.size());
    ASSERT_EQ(probed.current_generation().slot_count(),
              plain.current_generation().slot_count());
    ASSERT_EQ(probed.journal_valid(), plain.journal_valid());
    if (step % 97 == 0 || step == 39999) {
      ASSERT_EQ(probed.current_generation().snapshot(),
                plain.current_generation().snapshot());
      ASSERT_EQ(probed.previous_generation().snapshot(),
                plain.previous_generation().snapshot());
      ASSERT_TRUE(std::equal(probed.journal().begin(), probed.journal().end(),
                             plain.journal().begin(), plain.journal().end()));
    }
  }
  // The interleavings the test exists for all happened.
  EXPECT_GT(stale_duplicates, 100u);
  EXPECT_GT(same_table, 10000u);
  EXPECT_GE(rotations, 3u);
  EXPECT_GT(probed.current_generation().slot_count(), 1024u);
}

TEST(GenerationalDedupStress, StaleProbeNeverStoresADuplicate) {
  // A probe whose slot another insert of the same hash has taken, or that
  // a growth or a restore made stale, must fall back and find the hash.
  fuzz::GenerationalDedup dedup;
  fuzz::GenerationalDedup::Probe probe;
  ASSERT_TRUE(dedup.insert(1));
  ASSERT_FALSE(dedup.contains(42, probe));
  ASSERT_TRUE(dedup.insert(42));
  EXPECT_FALSE(dedup.insert(42, probe));
  EXPECT_EQ(dedup.size(), 2u);

  // The probe predates a growth: its slot index means nothing now.
  ASSERT_FALSE(dedup.contains(7, probe));
  ASSERT_TRUE(dedup.insert(7));
  for (std::uint64_t h = 1000; h < 1600; ++h) ASSERT_TRUE(dedup.insert(h));
  ASSERT_GT(dedup.current_generation().slot_count(), probe.slot_count);
  EXPECT_FALSE(dedup.insert(7, probe));

  // The probe predates a restore that brought the hash back.
  ASSERT_FALSE(dedup.contains(9, probe));
  const std::vector<std::uint64_t> with_nine = {9};
  dedup.restore_generations(with_nine, {});
  EXPECT_FALSE(dedup.insert(9, probe));
  EXPECT_EQ(dedup.size(), 1u);
  EXPECT_EQ(dedup.current_generation().snapshot(), with_nine);
}

// -- Reader-side dirty-list rebuild stress. -------------------------------

/// Adversarial pattern generator: biases cells toward word boundaries
/// (words 0 and 8191, cell edges within words) and mixes sparse, dense and
/// saturated shapes.
Pattern adversarial_pattern(Rng& rng) {
  Pattern pattern;
  const int shape = static_cast<int>(rng.below(4));
  if (shape == 0) {
    // Boundary-focused: the words PR 3's reviews called out.
    for (const std::uint32_t word : {0u, 1u, 8190u, 8191u}) {
      const std::uint32_t base = word * 8;
      pattern.push_back({base, static_cast<std::uint32_t>(1 + rng.below(5))});
      pattern.push_back(
          {base + 7, static_cast<std::uint32_t>(1 + rng.below(5))});
    }
  } else if (shape == 1) {
    // Saturation: counters pinned at/beyond 0xFF.
    for (int i = 0; i < 6; ++i) {
      pattern.push_back({static_cast<std::uint32_t>(rng.below(cov::kMapSize)),
                         200 + static_cast<std::uint32_t>(rng.below(120))});
    }
  } else if (shape == 2) {
    // Dense smear: thousands of cells, many words fully populated.
    const std::uint32_t start =
        static_cast<std::uint32_t>(rng.below(cov::kMapSize - 4096));
    for (std::uint32_t c = 0; c < 3000; ++c) {
      pattern.push_back({start + c, 1});
    }
  } else {
    // Sparse scatter.
    const std::size_t edges = 1 + rng.index(64);
    for (std::size_t i = 0; i < edges; ++i) {
      pattern.push_back({static_cast<std::uint32_t>(rng.below(cov::kMapSize)),
                         static_cast<std::uint32_t>(1 + rng.below(8))});
    }
  }
  return pattern;
}

TEST(DirtyRebuildStress, AdversarialAdoptCyclesStayExactOnEveryKernel) {
  auto external = std::make_unique<std::uint64_t[]>(cov::kMapWords);
  auto* external_bytes = reinterpret_cast<std::uint8_t*>(external.get());
  for (const cov::simd::Kernel kind : runnable_kernels()) {
    SCOPED_TRACE(std::string("kernel ") +
                 std::string(cov::simd::kernel_name(kind)));
    Rng rng(0xD127);
    cov::CoverageMap adopted;
    adopted.use_kernel(kind);
    cov::CoverageMap reference;
    reference.use_kernel(kind);
    for (int round = 0; round < 60; ++round) {
      const Pattern pattern = adversarial_pattern(rng);

      std::memset(external_bytes, 0, cov::kMapSize);
      cov::begin_trace(external_bytes);
      emit_pattern(pattern);
      cov::end_trace();

      adopted.adopt_external(external.get());
      ASSERT_EQ(dirty_list_defect(adopted), "") << "round " << round;
      const cov::TraceSummary a = adopted.finalize_execution();

      reference.begin_execution();
      emit_pattern(pattern);
      const cov::TraceSummary b = reference.finalize_execution();

      ASSERT_EQ(a.trace_hash, b.trace_hash) << "round " << round;
      ASSERT_EQ(a.trace_edges, b.trace_edges) << "round " << round;
      ASSERT_EQ(a.new_coverage, b.new_coverage) << "round " << round;
      ASSERT_EQ(adopted.edges_covered(), reference.edges_covered())
          << "round " << round;
      ASSERT_EQ(0, std::memcmp(adopted.trace(), reference.trace(),
                               cov::kMapSize))
          << "round " << round;
      ASSERT_EQ(adopted.snapshot_accumulated(),
                reference.snapshot_accumulated())
          << "round " << round;
    }
  }
}

TEST(DirtyRebuildStress, StaleDirtyWordsNeverLeakAcrossAdoptions) {
  // A dense adoption followed by a tiny one: every word of the dense trace
  // must be cleared even though the new external map no longer lists it.
  auto external = std::make_unique<std::uint64_t[]>(cov::kMapWords);
  auto* external_bytes = reinterpret_cast<std::uint8_t*>(external.get());
  cov::CoverageMap map;

  Pattern dense_smear;
  for (std::uint32_t c = 0; c < cov::kMapSize; c += 3) {
    dense_smear.push_back({c, 1});
  }
  std::memset(external_bytes, 0, cov::kMapSize);
  cov::begin_trace(external_bytes);
  emit_pattern(dense_smear);
  cov::end_trace();
  map.adopt_external(external.get());
  map.finalize_execution();

  const Pattern tiny = {{8191u * 8 + 7, 1}};
  std::memset(external_bytes, 0, cov::kMapSize);
  cov::begin_trace(external_bytes);
  emit_pattern(tiny);
  cov::end_trace();
  map.adopt_external(external.get());
  ASSERT_EQ(dirty_list_defect(map), "");
  EXPECT_EQ(map.dirty_word_count(), 1u);
  EXPECT_EQ(map.dirty_words()[0], 8191u);
  const cov::TraceSummary summary = map.finalize_execution();
  EXPECT_EQ(summary.trace_edges, 1u);
}

}  // namespace
}  // namespace icsfuzz
