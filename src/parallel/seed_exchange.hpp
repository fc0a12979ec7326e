// SeedExchange — the shared rendezvous of a parallel fuzzing campaign.
//
// Workers run independent Peach*/Peach/ByteMutation loops and meet here
// periodically (worker.hpp's sync step) to
//   * publish valuable seeds into a mutex-sharded, content-deduplicated
//     store that peers pull with per-shard cursors (no worker ever blocks
//     another for longer than one shard append),
//   * fold their accumulated CoverageMap / PathTracker into the campaign's
//     global view (the deduplicated "paths covered" number reported for the
//     whole campaign, cf. the per-campaign metric of the paper's §V), and
//   * swap cracked puzzles through a global PuzzleCorpus so one worker's
//     File Cracker discoveries feed every worker's semantic generation.
//     Both directions move only the buckets changed since the caller's
//     last visit (PuzzleCorpus::merge_from's `since`), so a sync costs what
//     changed, not the corpus size.
//
// All three surfaces are independently locked; a campaign with W=1 merely
// publishes into an exchange nobody reads, which keeps the single-worker
// campaign bit-for-bit identical to the sequential engine. An exchange is
// never checkpointed: a resumed campaign starts a fresh one, whose cursors
// and puzzle revisions start at 0.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "coverage/path_tracker.hpp"
#include "fuzzer/corpus.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz::par {

/// One published valuable seed.
struct ExchangeSeed {
  Bytes bytes;
  std::string model_name;
  std::size_t origin_worker = 0;
  std::uint64_t origin_execution = 0;
};

class SeedExchange {
 public:
  /// `rng_seed` seeds the global corpus' replacement decisions.
  explicit SeedExchange(std::uint64_t rng_seed = 0xC0FFEE);

  /// A reader's per-shard positions. Value-initialized cursors start at the
  /// beginning (the first pull sees everything published so far).
  struct Cursor {
    std::vector<std::size_t> next;
  };

  /// Publishes one valuable seed. Returns false when an identical payload
  /// was already published by any worker (content dedup).
  bool publish(std::size_t worker, Bytes bytes, std::string model_name,
               std::uint64_t execution);

  /// Appends to `out` every seed published since `cursor` whose origin is
  /// not `worker`, advancing the cursor. Returns the number appended.
  std::size_t pull(std::size_t worker, Cursor& cursor,
                   std::vector<ExchangeSeed>& out) const;

  /// Lifetime count of accepted (non-duplicate) seeds.
  [[nodiscard]] std::size_t published_count() const {
    return published_.load(std::memory_order_relaxed);
  }

  // -- Global coverage. --

  /// Folds a worker's accumulated map and path set into the global view.
  void merge_coverage(const cov::CoverageMap& map,
                      const cov::PathTracker& paths);

  /// Deduplicated campaign-wide tallies (across all merges so far).
  [[nodiscard]] std::size_t global_edges() const;
  [[nodiscard]] std::size_t global_paths() const;

  // -- Global puzzle pool. --

  /// Folds the buckets of a worker's puzzle corpus changed after its
  /// revision `since` (0: all of them) into the global pool.
  void publish_puzzles(const fuzz::PuzzleCorpus& corpus,
                       std::uint64_t since = 0);

  /// Folds the global pool's buckets changed after its revision `since`
  /// into `into`, using `rng` for replacement victims (the caller's import
  /// RNG), and advances `since` to the pool's revision under the same
  /// lock. Returns puzzles added to `into`.
  std::size_t import_puzzles(fuzz::PuzzleCorpus& into, Rng& rng,
                             std::uint64_t& since) const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<ExchangeSeed> seeds;
    std::unordered_set<std::uint64_t> hashes;  // content dedup
  };

  /// Independent seed shards (locks): more shards, less contention. The
  /// content hash picks the shard, so dedup stays global.
  static constexpr std::size_t kShards = 8;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> published_{0};

  mutable std::mutex coverage_mutex_;
  cov::CoverageMap global_map_;
  cov::PathTracker global_paths_;

  mutable std::mutex puzzle_mutex_;
  fuzz::PuzzleCorpus global_corpus_;
  Rng corpus_rng_;
};

}  // namespace icsfuzz::par
