// Equivalence suite for the sparse dirty-word hot path and its SIMD kernels.
//
// Every analysis the feedback loop consumes — classified trace, trace hash,
// edge count, new-bit decision, accumulated map — must be bit-identical
// across a three-implementation matrix: the dense full-map reference
// (coverage/dense_ref.hpp, a map pinned to simd::Kernel::kDense), the sparse
// path pinned to the scalar reference kernel, and the sparse path on every
// vector kernel this build + CPU can run (coverage/simd.hpp —
// force-selecting the scalar kernel alongside the SIMD one exercises both
// dispatch arms even on a single ISA). The suite
// drives the matrix through randomized trace patterns (including empty,
// dense, and the boundary words 0 and 8191), proves the merge kernels
// equivalent on both sides of the dirty-superset/full-sweep hybrid, and then
// proves trajectory preservation at campaign scale: a fixed-seed Fuzzer run,
// a supervised W=2 parallel campaign, and a distill_interval auto-distill campaign
// each produce identical path/edge series under every mode. The
// out-of-process adoption paths are held to the same standard: sparse
// adoption from a dirty-word list (CoverageMap::adopt_sparse) must equal
// the full-map scan (adopt_external) for any list that names every
// nonzero word, however noisy, and fuzz::adopt_oop_trace must read a list
// only when it is published, within the cap, from a completed execution
// and on a map that is not the kDense oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "coverage/dense_ref.hpp"
#include "coverage/instrument.hpp"
#include "coverage/simd.hpp"
#include "exec_oop/exec_protocol.hpp"
#include "fuzzer/exec_backend.hpp"
#include "parallel/parallel_campaign.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/test_support.hpp"
#include "util/rng.hpp"

namespace icsfuzz::cov {
namespace {

using icsfuzz::test::emit_cell;
using icsfuzz::test::runnable_kernels;

/// One synthetic execution: the (cell, raw-count) multiset to emit.
using Pattern = icsfuzz::test::CellPattern;

/// Replays `pattern` into `map` between begin_execution and
/// finalize_execution (on whatever kernel the map is pinned to) and returns
/// the summary.
TraceSummary replay(CoverageMap& map, const Pattern& pattern) {
  map.begin_execution();
  icsfuzz::test::emit_pattern(pattern);
  return map.finalize_execution();
}

/// Drives the full three-way matrix: for every runnable vector kernel, the
/// sparse path on that kernel, the sparse path force-pinned to the scalar
/// reference, and the dense full-map reference must stay bit-identical
/// execution by execution.
void expect_equivalent(const std::vector<Pattern>& executions) {
  for (const simd::Kernel kind : runnable_kernels()) {
    SCOPED_TRACE(std::string("kernel ") +
                 std::string(simd::kernel_name(kind)));
    CoverageMap sparse;
    sparse.use_kernel(kind);
    ASSERT_EQ(sparse.kernel(), kind);
    CoverageMap scalar;
    scalar.use_kernel(simd::Kernel::kScalar);
    CoverageMap dense;
    dense.use_kernel(simd::Kernel::kDense);
    for (std::size_t i = 0; i < executions.size(); ++i) {
      const TraceSummary s = replay(sparse, executions[i]);
      const TraceSummary sc = replay(scalar, executions[i]);
      const TraceSummary d = replay(dense, executions[i]);
      ASSERT_EQ(s.trace_hash, d.trace_hash) << "execution " << i;
      ASSERT_EQ(s.trace_hash, sc.trace_hash) << "execution " << i;
      ASSERT_EQ(s.trace_edges, d.trace_edges) << "execution " << i;
      ASSERT_EQ(s.trace_edges, sc.trace_edges) << "execution " << i;
      ASSERT_EQ(s.new_coverage, d.new_coverage) << "execution " << i;
      ASSERT_EQ(s.new_coverage, sc.new_coverage) << "execution " << i;
      ASSERT_EQ(sparse.edges_covered(), dense.edges_covered())
          << "execution " << i;
      ASSERT_EQ(sparse.edges_covered(), scalar.edges_covered())
          << "execution " << i;
      // The classified trace buffers and accumulated maps must match byte
      // for byte, not just in aggregate.
      ASSERT_EQ(0, std::memcmp(sparse.trace(), dense.trace(), kMapSize))
          << "execution " << i;
      ASSERT_EQ(0, std::memcmp(sparse.trace(), scalar.trace(), kMapSize))
          << "execution " << i;
      ASSERT_EQ(sparse.snapshot_accumulated(), dense.snapshot_accumulated())
          << "execution " << i;
      ASSERT_EQ(sparse.snapshot_accumulated(), scalar.snapshot_accumulated())
          << "execution " << i;
    }
  }
}

TEST(SparseEquivalence, EmptyTrace) {
  expect_equivalent({Pattern{}, Pattern{}});
}

TEST(SparseEquivalence, BoundaryWords) {
  // Cells of map word 0 and map word 8191 (the last word), plus the very
  // first and last cells of the map.
  Pattern boundary;
  for (const std::uint32_t cell : {0u, 7u, 65528u, 65535u}) {
    boundary.push_back({cell, 1});
  }
  // A second execution revisits the boundary cells with bucket-changing
  // counts and adds neighbours.
  Pattern revisit;
  for (const std::uint32_t cell : {0u, 65535u}) revisit.push_back({cell, 3});
  for (const std::uint32_t cell : {1u, 65529u}) revisit.push_back({cell, 1});
  expect_equivalent({boundary, revisit, boundary});
}

TEST(SparseEquivalence, SaturatedCounts) {
  Pattern saturated;
  saturated.push_back({123u, 300});  // beyond the 0xFF saturation
  saturated.push_back({124u, 255});
  saturated.push_back({125u, 128});
  expect_equivalent({saturated, saturated});
}

TEST(SparseEquivalence, RandomizedExecutionSequences) {
  Rng rng(0xC0FFEE);
  std::vector<Pattern> executions;
  for (int exec = 0; exec < 40; ++exec) {
    Pattern pattern;
    // Mix sparse (a handful of edges) and dense (thousands) executions.
    const std::size_t edges = rng.chance(1, 5)
                                  ? 2000 + rng.index(3000)
                                  : 1 + rng.index(300);
    for (std::size_t i = 0; i < edges; ++i) {
      pattern.push_back(
          {static_cast<std::uint32_t>(rng.below(kMapSize)),
           static_cast<std::uint32_t>(1 + rng.below(40))});
    }
    executions.push_back(std::move(pattern));
  }
  expect_equivalent(executions);
}

TEST(SparseEquivalence, PerQueryApiMatchesFusedSummary) {
  // The dirty-list-backed per-query API (end_execution + has_new_bits +
  // accumulate + trace_hash + trace_edge_count) must agree with the fused
  // finalize_execution on an identical twin map.
  Rng rng(7);
  CoverageMap fused;
  CoverageMap queried;
  for (int exec = 0; exec < 20; ++exec) {
    Pattern pattern;
    const std::size_t edges = 1 + rng.index(200);
    for (std::size_t i = 0; i < edges; ++i) {
      pattern.push_back(
          {static_cast<std::uint32_t>(rng.below(kMapSize)),
           static_cast<std::uint32_t>(1 + rng.below(5))});
    }
    const TraceSummary summary = replay(fused, pattern);

    queried.begin_execution();
    icsfuzz::test::emit_pattern(pattern);
    queried.end_execution();
    const bool new_bits = queried.has_new_bits();
    ASSERT_EQ(queried.trace_hash(), summary.trace_hash);
    ASSERT_EQ(queried.trace_edge_count(), summary.trace_edges);
    ASSERT_EQ(queried.accumulate(), summary.new_coverage);
    ASSERT_EQ(new_bits, summary.new_coverage);
    ASSERT_EQ(queried.edges_covered(), fused.edges_covered());
    ASSERT_EQ(queried.snapshot_accumulated(), fused.snapshot_accumulated());
  }
}

TEST(SparseEquivalence, DirtyListIsCompleteAndDuplicateFree) {
  CoverageMap map;
  Pattern pattern;
  for (const std::uint32_t cell : {8u, 9u, 15u, 4096u, 65535u, 10u}) {
    pattern.push_back({cell, 2});
  }
  replay(map, pattern);
  std::vector<bool> listed(kMapWords, false);
  for (std::uint32_t i = 0; i < map.dirty_word_count(); ++i) {
    const std::uint16_t w = map.dirty_words()[i];
    ASSERT_FALSE(listed[w]) << "word " << w << " listed twice";
    listed[w] = true;
  }
  for (std::size_t w = 0; w < kMapWords; ++w) {
    const bool nonzero = dense::load_word(map.trace(), w) != 0;
    ASSERT_EQ(nonzero, listed[w]) << "word " << w;
  }
}

// -- Sparse adoption vs full-scan adoption. -------------------------------

/// A random raw map as an out-of-process target leaves it: `nonzero`
/// distinct words (the boundary words 0 and kMapWords - 1 among them
/// whenever there is room) set to random nonzero counts.
std::vector<std::uint64_t> random_external_map(Rng& rng,
                                               std::uint32_t nonzero) {
  std::vector<std::uint64_t> words(kMapWords, 0);
  std::uint32_t placed = 0;
  const auto place = [&](std::size_t w) {
    if (words[w] != 0) return;
    std::uint64_t word = 0;
    while (word == 0) word = rng.next_u64() & rng.next_u64();
    words[w] = word;
    ++placed;
  };
  if (nonzero >= 2) {
    place(0);
    place(kMapWords - 1);
  }
  while (placed < nonzero) place(rng.below(kMapWords));
  return words;
}

/// The nonzero words of `words`, in random order.
std::vector<std::uint16_t> complete_list(
    Rng& rng, const std::vector<std::uint64_t>& words) {
  std::vector<std::uint16_t> list;
  for (std::size_t w = 0; w < kMapWords; ++w) {
    if (words[w] != 0) list.push_back(static_cast<std::uint16_t>(w));
  }
  rng.shuffle(list);
  return list;
}

/// The trace words of `map` as a vector (the full raw trace).
std::vector<std::uint64_t> trace_words(const CoverageMap& map) {
  std::vector<std::uint64_t> words(kMapWords);
  std::memcpy(words.data(), map.trace(), kMapSize);
  return words;
}

/// Both maps must hold the same trace, a complete duplicate-free dirty
/// list, and analyse to the same summary and accumulated map.
void expect_same_adoption(CoverageMap& sparse, CoverageMap& full) {
  ASSERT_EQ(icsfuzz::test::dirty_list_defect(sparse), "");
  ASSERT_EQ(trace_words(sparse), trace_words(full));
  ASSERT_EQ(sparse.dirty_word_count(), full.dirty_word_count());
  const TraceSummary s = sparse.finalize_execution();
  const TraceSummary f = full.finalize_execution();
  ASSERT_EQ(s.trace_hash, f.trace_hash);
  ASSERT_EQ(s.trace_edges, f.trace_edges);
  ASSERT_EQ(s.new_coverage, f.new_coverage);
  ASSERT_EQ(sparse.edges_covered(), full.edges_covered());
  ASSERT_EQ(sparse.snapshot_accumulated(), full.snapshot_accumulated());
}

TEST(SparseAdoption, MatchesFullScanOnRandomMapsWithNoisyLists) {
  // A complete list, salted with what a list may carry that is not a
  // trace word: zero words, duplicates, and indices past the map (masked
  // back into it). Each adoption follows the previous one on the same
  // maps, so the sparse clear of the last trace is exercised too.
  for (const simd::Kernel kind : runnable_kernels()) {
    SCOPED_TRACE(std::string("kernel ") +
                 std::string(simd::kernel_name(kind)));
    Rng rng(0x5A4E + static_cast<std::uint64_t>(kind));
    CoverageMap sparse;
    sparse.use_kernel(kind);
    CoverageMap full;
    full.use_kernel(kind);
    for (int round = 0; round < 200; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const std::uint32_t nonzero =
          static_cast<std::uint32_t>(rng.below(round % 25 == 0 ? 3000 : 120));
      const std::vector<std::uint64_t> words =
          random_external_map(rng, nonzero);
      std::vector<std::uint16_t> list = complete_list(rng, words);
      const std::size_t noise = rng.below(40);
      for (std::size_t i = 0; i < noise; ++i) {
        switch (rng.below(3)) {
          case 0:  // a zero word (or, by chance, a duplicate)
            list.push_back(static_cast<std::uint16_t>(rng.below(kMapWords)));
            break;
          case 1:  // a duplicate
            if (list.empty()) continue;
            list.push_back(rng.pick(list));
            break;
          default:  // past the map
            list.push_back(static_cast<std::uint16_t>(
                rng.between(kMapWords, 0xFFFF)));
            break;
        }
        std::swap(list.back(), rng.pick(list));
      }
      sparse.adopt_sparse(words.data(), list.data(),
                          static_cast<std::uint32_t>(list.size()));
      full.adopt_external(words.data());
      expect_same_adoption(sparse, full);
    }
  }
}

TEST(SparseAdoption, CorruptListCannotOverflowOrListAZeroWord) {
  // Every index named many times over, most of them past the map: the
  // adopted list still names each nonzero word once and nothing else.
  Rng rng(0xC0FF);
  const std::vector<std::uint64_t> words = random_external_map(rng, 4000);
  std::vector<std::uint16_t> list;
  for (int copy = 0; copy < 7; ++copy) {
    for (std::uint32_t w = 0; w < 0x10000; w += 1 + copy) {
      list.push_back(static_cast<std::uint16_t>(w));
    }
  }
  CoverageMap sparse;
  sparse.adopt_sparse(words.data(), list.data(),
                      static_cast<std::uint32_t>(list.size()));
  CoverageMap full;
  full.adopt_external(words.data());
  expect_same_adoption(sparse, full);

  // An incomplete list adopts exactly what it names.
  const std::vector<std::uint16_t> partial = {0, 1, 2, 3, 0, 8191};
  sparse.adopt_sparse(words.data(), partial.data(),
                      static_cast<std::uint32_t>(partial.size()));
  ASSERT_EQ(icsfuzz::test::dirty_list_defect(sparse), "");
  for (std::size_t w = 0; w < kMapWords; ++w) {
    const bool named = w <= 3 || w == 8191;
    EXPECT_EQ(dense::load_word(sparse.trace(), w), named ? words[w] : 0)
        << "word " << w;
  }
}

/// Which path adopt_oop_trace took for one published region, and whether
/// its result matches the full scan.
struct Routed {
  bool full_scan = false;
  bool matches_full_scan = false;
};

/// Publishes `list` (dirty_list_store's rules; `publish` false leaves the
/// region unpublished) next to `words`, adopts through adopt_oop_trace on
/// a map pinned to `kind`, and compares with adopt_external.
Routed route(simd::Kernel kind, const std::vector<std::uint64_t>& words,
             const std::vector<std::uint16_t>& list, bool publish,
             bool completed) {
  std::vector<std::uint8_t> region(oop::kDirtyListBytes, 0);
  if (publish) {
    oop::dirty_list_store(region.data(), list.data(),
                          static_cast<std::uint32_t>(list.size()));
  }
  telem::Telemetry hub;
  CoverageMap adopted;
  adopted.use_kernel(kind);
  fuzz::adopt_oop_trace(telem::Sink(&hub, 0), adopted, words.data(),
                        region.data(), completed);
  CoverageMap full;
  full.use_kernel(kind);
  full.adopt_external(words.data());
  Routed routed;
  routed.full_scan =
      hub.snapshot().counter(telem::Counter::kOopAdoptFullScans) == 1;
  routed.matches_full_scan = trace_words(adopted) == trace_words(full) &&
                             icsfuzz::test::dirty_list_defect(adopted).empty();
  return routed;
}

TEST(SparseAdoption, OnlyACompletePublishedListWithinTheCapIsReadSparsely) {
  // Each map carries one nonzero word its list leaves out, so a sparse
  // adoption is told apart from the full scan by its result as well as
  // by the oop_adopt_full_scans counter.
  Rng rng(0xAD09);
  const auto with_unlisted_word = [&](std::uint32_t listed) {
    std::vector<std::uint64_t> words = random_external_map(rng, listed + 1);
    std::vector<std::uint16_t> list = complete_list(rng, words);
    list.pop_back();
    return std::make_pair(words, list);
  };
  std::vector<simd::Kernel> kinds = runnable_kernels();
  kinds.push_back(simd::Kernel::kDense);
  for (const simd::Kernel kind : kinds) {
    SCOPED_TRACE(std::string("kernel ") +
                 std::string(simd::kernel_name(kind)));
    const bool dense_oracle = kind == simd::Kernel::kDense;
    for (const std::uint32_t count : {0u, 1u, 57u, oop::kDirtyListCap}) {
      SCOPED_TRACE("count " + std::to_string(count));
      const auto [words, list] = with_unlisted_word(count);
      ASSERT_EQ(list.size(), count);
      const Routed published = route(kind, words, list, true, true);
      EXPECT_EQ(published.full_scan, dense_oracle);
      EXPECT_EQ(published.matches_full_scan, dense_oracle);
      // The same list from an execution that did not complete, or left
      // unpublished: the full scan, whatever the kernel.
      const Routed incomplete = route(kind, words, list, true, false);
      EXPECT_TRUE(incomplete.full_scan);
      EXPECT_TRUE(incomplete.matches_full_scan);
      const Routed unpublished = route(kind, words, list, false, true);
      EXPECT_TRUE(unpublished.full_scan);
      EXPECT_TRUE(unpublished.matches_full_scan);
    }
    // One index past the cap: stored as unpublished, so the full scan.
    const auto [words, list] = with_unlisted_word(oop::kDirtyListCap + 1);
    const Routed over = route(kind, words, list, true, true);
    EXPECT_TRUE(over.full_scan);
    EXPECT_TRUE(over.matches_full_scan);
  }
}

TEST(SparseAdoption, DirtyListRegionRoundTripsAndInvalidates) {
  std::vector<std::uint8_t> aux(oop::kAuxBytes, 0xFF);
  std::vector<std::uint8_t> region(oop::kDirtyListBytes, 0);
  const std::uint16_t* indices = nullptr;
  std::uint32_t count = 0;
  EXPECT_FALSE(oop::dirty_list_load(region.data(), indices, count))
      << "a zeroed region is unpublished";

  const std::vector<std::uint16_t> list = {7, 8191, 0, 7};
  oop::dirty_list_store(region.data(), list.data(), 4);
  ASSERT_TRUE(oop::dirty_list_load(region.data(), indices, count));
  ASSERT_EQ(count, 4u);
  EXPECT_TRUE(std::equal(list.begin(), list.end(), indices));

  oop::dirty_list_store(region.data(), list.data(), 0);
  ASSERT_TRUE(oop::dirty_list_load(region.data(), indices, count))
      << "an empty trace is a published list";
  EXPECT_EQ(count, 0u);

  oop::result_invalidate(aux.data(), region.data());
  EXPECT_FALSE(oop::dirty_list_load(region.data(), indices, count));
  oop::AuxResult result;
  EXPECT_FALSE(oop::aux_load(aux.data(), aux.size(), result));

  // A corrupt count past the cap reads as unpublished.
  const std::uint32_t corrupt = oop::kDirtyListCap + 2;
  std::memcpy(region.data(), &corrupt, sizeof corrupt);
  EXPECT_FALSE(oop::dirty_list_load(region.data(), indices, count));
}

// -- SIMD kernel dispatch. ------------------------------------------------

TEST(SimdDispatch, ScalarKernelAlwaysRunnable) {
  EXPECT_NE(simd::ops_for(simd::Kernel::kScalar), nullptr);
  EXPECT_EQ(simd::scalar_ops().kind, simd::Kernel::kScalar);
  // kAuto always resolves (to scalar at worst).
  EXPECT_NE(simd::ops_for(simd::Kernel::kAuto), nullptr);
  EXPECT_NE(simd::ops_for(simd::best_kernel()), nullptr);
  // The dense reference oracle is selectable on every build.
  EXPECT_NE(simd::ops_for(simd::Kernel::kDense), nullptr);
}

TEST(SimdDispatch, UseKernelPinsOrFallsBackToScalar) {
  for (const simd::Kernel kind :
       {simd::Kernel::kScalar, simd::Kernel::kAVX2, simd::Kernel::kDense}) {
    CoverageMap map;
    map.use_kernel(kind);
    if (simd::ops_for(kind) != nullptr) {
      EXPECT_EQ(map.kernel(), kind) << simd::kernel_name(kind);
    } else {
      EXPECT_EQ(map.kernel(), simd::Kernel::kScalar)
          << simd::kernel_name(kind);
    }
  }
}

// -- Accumulated-map dirty superset (the sparse merge's iteration set). ---

void expect_superset_exact(const CoverageMap& map) {
  std::vector<bool> listed(kMapWords, false);
  for (std::uint32_t i = 0; i < map.accumulated_dirty_word_count(); ++i) {
    const std::uint16_t w = map.accumulated_dirty_words()[i];
    ASSERT_FALSE(listed[w]) << "virgin word " << w << " listed twice";
    listed[w] = true;
  }
  for (std::size_t w = 0; w < kMapWords; ++w) {
    const bool nonzero = dense::load_word(map.accumulated(), w) != 0;
    ASSERT_EQ(nonzero, listed[w]) << "virgin word " << w;
  }
}

TEST(AccumulatedDirtySuperset, TracksEveryAccumulatePath) {
  for (const simd::Kernel kind : runnable_kernels()) {
    SCOPED_TRACE(std::string("kernel ") +
                 std::string(simd::kernel_name(kind)));
    Rng rng(0xACCD);
    CoverageMap map;
    map.use_kernel(kind);
    // Fused finalize path.
    for (int exec = 0; exec < 10; ++exec) {
      Pattern pattern;
      const std::size_t edges = 1 + rng.index(400);
      for (std::size_t i = 0; i < edges; ++i) {
        pattern.push_back(
            {static_cast<std::uint32_t>(rng.below(kMapSize)),
             static_cast<std::uint32_t>(1 + rng.below(5))});
      }
      replay(map, pattern);
    }
    expect_superset_exact(map);

    // Per-query accumulate path.
    map.begin_execution();
    emit_cell(12345);
    emit_cell(65535);
    map.end_execution();
    map.accumulate();
    expect_superset_exact(map);

    // Merge paths (sparse walk and raw snapshot).
    CoverageMap other;
    other.use_kernel(kind);
    Pattern foreign;
    for (const std::uint32_t cell : {77u, 40000u, 65528u}) {
      foreign.push_back({cell, 2});
    }
    replay(other, foreign);
    map.merge(other);
    expect_superset_exact(map);
    CoverageMap snapshot_sink;
    snapshot_sink.use_kernel(kind);
    snapshot_sink.merge_accumulated(map.snapshot_accumulated().data());
    expect_superset_exact(snapshot_sink);

    // Dense-reference finalize rebuilds the superset.
    map.use_kernel(simd::Kernel::kDense);
    replay(map, foreign);
    expect_superset_exact(map);

    map.reset_accumulated();
    EXPECT_EQ(map.accumulated_dirty_word_count(), 0u);
    expect_superset_exact(map);
  }
}

// -- Merge-kernel equivalence (the SIMD-compared parallel sync). ----------

/// Builds a map whose accumulated coverage has roughly `words` dirty words —
/// below kMapWords/8 it exercises the sparse superset walk of merge(), above
/// it the SIMD-compared full sweep.
CoverageMap make_accumulated(simd::Kernel kind, std::size_t words,
                             std::uint64_t seed) {
  CoverageMap map;
  map.use_kernel(kind);
  Rng rng(seed);
  Pattern pattern;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint32_t word = static_cast<std::uint32_t>(rng.below(kMapWords));
    pattern.push_back(
        {word * 8 + static_cast<std::uint32_t>(rng.below(8)),
         static_cast<std::uint32_t>(1 + rng.below(200))});
  }
  replay(map, pattern);
  return map;
}

TEST(MergeEquivalence, KernelsMatchDenseReferenceOnBothHybridArms) {
  // 200 words < kMapWords/8 (sparse superset walk); 3000 words > kMapWords/8
  // (SIMD-compared full sweep).
  for (const std::size_t words : {std::size_t{200}, std::size_t{3000}}) {
    SCOPED_TRACE("words " + std::to_string(words));
    for (const simd::Kernel kind : runnable_kernels()) {
      SCOPED_TRACE(std::string("kernel ") +
                   std::string(simd::kernel_name(kind)));
      CoverageMap dst = make_accumulated(kind, words, 1);
      CoverageMap src = make_accumulated(kind, words, 2);
      // Dense reference: OR the snapshots through the retained full-map
      // accumulate.
      std::vector<std::uint8_t> expected = dst.snapshot_accumulated();
      const std::vector<std::uint8_t> addend = src.snapshot_accumulated();
      const bool expected_added =
          dense::accumulate(addend.data(), expected.data());
      const std::size_t expected_edges = dense::edge_count(expected.data());

      EXPECT_EQ(dst.merge(src), expected_added);
      EXPECT_EQ(dst.snapshot_accumulated(), expected);
      EXPECT_EQ(dst.edges_covered(), expected_edges);
      expect_superset_exact(dst);
      // Idempotent: the steady-state sync adds nothing on either arm.
      EXPECT_FALSE(dst.merge(src));
      EXPECT_EQ(dst.edges_covered(), expected_edges);

      // The raw-snapshot merge path reaches the same state.
      CoverageMap via_snapshot = make_accumulated(kind, words, 1);
      EXPECT_EQ(via_snapshot.merge_accumulated(addend.data()), expected_added);
      EXPECT_EQ(via_snapshot.snapshot_accumulated(), expected);
      EXPECT_EQ(via_snapshot.edges_covered(), expected_edges);
      expect_superset_exact(via_snapshot);
    }
  }
}

TEST(MergeEquivalence, MixedKernelWorkersMergeIdentically) {
  // A SIMD worker merged into a scalar exchange (and vice versa) must land
  // on the same global map — parallel campaigns may mix kernels freely.
  const std::vector<simd::Kernel> kernels = runnable_kernels();
  const simd::Kernel vector_kind = kernels.back();
  CoverageMap worker_scalar = make_accumulated(simd::Kernel::kScalar, 600, 9);
  CoverageMap worker_simd = make_accumulated(vector_kind, 600, 9);
  ASSERT_EQ(worker_scalar.snapshot_accumulated(),
            worker_simd.snapshot_accumulated());

  CoverageMap exchange_scalar;
  exchange_scalar.use_kernel(simd::Kernel::kScalar);
  CoverageMap exchange_simd;
  exchange_simd.use_kernel(vector_kind);
  exchange_scalar.merge(worker_simd);
  exchange_simd.merge(worker_scalar);
  EXPECT_EQ(exchange_scalar.snapshot_accumulated(),
            exchange_simd.snapshot_accumulated());
  EXPECT_EQ(exchange_scalar.edges_covered(), exchange_simd.edges_covered());
}

// -- Campaign-scale trajectory preservation. ------------------------------

fuzz::TargetFactory modbus_factory() {
  return [] { return std::make_unique<proto::ModbusServer>(); };
}

const model::DataModelSet& modbus_models() {
  static const model::DataModelSet models = pits::modbus_pit();
  return models;
}

/// Rolling fingerprint + per-checkpoint series of one campaign.
struct Trajectory {
  std::vector<std::size_t> path_series;
  std::vector<std::size_t> edge_series;
  std::uint64_t exec_fingerprint = 0;
  std::size_t retained = 0;
  std::size_t corpus = 0;
  std::size_t crashes = 0;

  bool operator==(const Trajectory&) const = default;
};

Trajectory run_campaign(simd::Kernel kernel, std::uint64_t iterations,
                        std::uint64_t distill_interval = 0) {
  proto::ModbusServer server;
  fuzz::FuzzerConfig config;
  config.strategy = fuzz::Strategy::PeachStar;
  config.rng_seed = 42;
  config.distill_interval = distill_interval;
  config.executor.coverage_kernel = kernel;
  fuzz::Fuzzer fuzzer(server, modbus_models(), config);
  Trajectory trajectory;
  fuzzer.run(iterations, [&](const fuzz::ExecResult& result) {
    trajectory.exec_fingerprint =
        trajectory.exec_fingerprint * 0x100000001B3ULL ^
        mix64(result.trace_hash ^ (result.new_coverage ? 1 : 0) ^
              (result.new_path ? 2 : 0) ^ result.trace_edges);
    if (fuzzer.executor().executions() % 500 == 0) {
      trajectory.path_series.push_back(fuzzer.path_count());
      trajectory.edge_series.push_back(fuzzer.executor().edge_count());
    }
  });
  trajectory.retained = fuzzer.retained_seeds().size();
  trajectory.corpus = fuzzer.corpus().size();
  trajectory.crashes = fuzzer.crashes().unique_count();
  return trajectory;
}

TEST(TrajectoryPreservation, FuzzerCampaignIdenticalToDenseReference) {
  // Three-way: dense reference vs sparse-scalar vs sparse on the best SIMD
  // kernel (the executor config force-selects the scalar arm, so both
  // dispatch paths run even when CI has a single ISA).
  const Trajectory simd = run_campaign(simd::Kernel::kAuto, 10000);
  const Trajectory scalar = run_campaign(simd::Kernel::kScalar, 10000);
  const Trajectory dense = run_campaign(simd::Kernel::kDense, 10000);
  EXPECT_EQ(simd, dense);
  EXPECT_EQ(simd, scalar);
  EXPECT_FALSE(simd.path_series.empty());
  EXPECT_GT(simd.path_series.back(), 0u);
}

TEST(TrajectoryPreservation, AutoDistillCampaignIdenticalToDenseReference) {
  const Trajectory simd =
      run_campaign(simd::Kernel::kAuto, 4000, /*distill_interval=*/1000);
  const Trajectory scalar =
      run_campaign(simd::Kernel::kScalar, 4000, /*distill_interval=*/1000);
  const Trajectory dense =
      run_campaign(simd::Kernel::kDense, 4000, /*distill_interval=*/1000);
  EXPECT_EQ(simd, dense);
  EXPECT_EQ(simd, scalar);
}

TEST(TrajectoryPreservation, ParallelCampaignW2IdenticalAcrossAllModes) {
  auto run_parallel = [&](simd::Kernel kernel) {
    par::ParallelCampaignConfig config;
    config.workers = 2;
    config.iterations_per_worker = 3000;
    config.base_seed = 99;
    // Syncing off: a syncing campaign is reproducible only up to OS thread
    // interleaving of the sync points (parallel_campaign.hpp), so the
    // bit-identical sparse-vs-dense comparison needs independent shards.
    // The exchange's merge paths are covered by the CoverageMerge and
    // MergeEquivalence suites.
    config.sync_interval = 0;
    config.fuzzer.strategy = fuzz::Strategy::PeachStar;
    config.fuzzer.executor.coverage_kernel = kernel;
    return test::run_parallel_campaign(modbus_factory(), modbus_models(),
                                       config);
  };
  // Three-way fixed-seed matrix at W=2: sparse-SIMD, sparse-scalar, dense.
  const par::ParallelCampaignResult simd = run_parallel(simd::Kernel::kAuto);
  const par::ParallelCampaignResult scalar =
      run_parallel(simd::Kernel::kScalar);
  const par::ParallelCampaignResult dense = run_parallel(simd::Kernel::kDense);

  for (const par::ParallelCampaignResult* other : {&scalar, &dense}) {
    ASSERT_EQ(simd.workers.size(), other->workers.size());
    for (std::size_t w = 0; w < simd.workers.size(); ++w) {
      EXPECT_EQ(simd.workers[w].paths, other->workers[w].paths)
          << "worker " << w;
      EXPECT_EQ(simd.workers[w].edges, other->workers[w].edges)
          << "worker " << w;
      EXPECT_EQ(simd.workers[w].retained_seeds,
                other->workers[w].retained_seeds)
          << "worker " << w;
      EXPECT_EQ(simd.workers[w].corpus_size, other->workers[w].corpus_size)
          << "worker " << w;
    }
    EXPECT_EQ(simd.global_paths, other->global_paths);
    EXPECT_EQ(simd.global_edges, other->global_edges);
    EXPECT_EQ(simd.total_executions, other->total_executions);
  }
}

}  // namespace
}  // namespace icsfuzz::cov
