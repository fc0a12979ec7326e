// PuzzleCorpus — the store of cracked packet pieces (paper §IV-C/D).
//
// Each puzzle is the serialized bytes of one sub-tree of a valuable seed's
// instantiation tree, keyed by the construction rule of the chunk it
// instantiates. Lookup happens in two tiers:
//   * exact rule key  (kind + shape + semantic tag) — "same rule";
//   * shape key       (kind + shape only)           — "similar rule".
// Per-rule entry counts are capped; once full, new entries replace random
// incumbents so the corpus keeps drifting toward recent discoveries without
// unbounded growth.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "model/chunk.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz::fuzz {

/// Checkpoint image of a PuzzleCorpus. Per-bucket entry ORDER is part of
/// the fuzzing trajectory (full-bucket replacement picks victims by
/// rng.index over the entries vector), so entries are captured verbatim in
/// order; the dedup hash sets are recomputed on restore. Keys are sorted so
/// the serialized form of a given corpus is stable.
struct CorpusSnapshot {
  struct BucketImage {
    std::uint64_t key = 0;
    std::vector<Bytes> entries;
  };
  std::vector<BucketImage> exact;
  std::vector<BucketImage> shape;
  std::uint64_t revision = 0;
};

struct CorpusConfig {
  /// Maximum stored puzzles per rule key (and per shape key).
  std::size_t per_rule_cap = 32;
};

class PuzzleCorpus {
 public:
  explicit PuzzleCorpus(CorpusConfig config = {}) : config_(config) {}

  /// Inserts one puzzle for `rule`. Deduplicates identical bytes within a
  /// rule. Returns true when the corpus changed.
  bool add(const model::Chunk& rule, Bytes puzzle, Rng& rng);

  /// Exact-tier candidates for `rule` (empty when none).
  [[nodiscard]] const std::vector<Bytes>* exact_candidates(
      const model::Chunk& rule) const;

  /// Similar-tier candidates for `rule` (empty when none).
  [[nodiscard]] const std::vector<Bytes>* similar_candidates(
      const model::Chunk& rule) const;

  /// Folds every puzzle of `other` into this corpus, tier by tier, with the
  /// usual per-bucket dedup and cap (rng picks replacement victims in full
  /// buckets). Returns the number of exact-tier puzzles actually added, so
  /// merging a corpus into itself — or re-merging an unchanged peer —
  /// returns 0 and draws nothing from `rng`. This is the corpus-sync
  /// primitive of the parallel campaign.
  std::size_t merge_from(const PuzzleCorpus& other, Rng& rng);

  [[nodiscard]] bool empty() const { return exact_.empty(); }

  /// Total stored puzzles across all exact-tier rules (a running count).
  [[nodiscard]] std::size_t size() const { return exact_size_; }

  /// Number of distinct exact rules with at least one puzzle.
  [[nodiscard]] std::size_t rule_count() const { return exact_.size(); }

  /// Monotonic mutation counter: bumped by every accepted add (including
  /// replacements) and by clear(). Lets parallel-sync callers skip whole
  /// corpus re-merges when nothing changed since their last visit.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  void clear();

  /// Captures both tiers for checkpointing (entry order preserved).
  [[nodiscard]] CorpusSnapshot snapshot() const;

  /// Replaces the corpus contents with `image` (bucket hash sets are
  /// recomputed from the entries; revision_ is restored verbatim).
  void restore(const CorpusSnapshot& image);

 private:
  struct Bucket {
    std::vector<Bytes> entries;
    std::unordered_set<std::uint64_t> hashes;  // dedup within the bucket
  };

  bool add_to(std::unordered_map<std::uint64_t, Bucket>& tier,
              std::uint64_t key, const Bytes& puzzle, Rng& rng);

  CorpusConfig config_;
  std::unordered_map<std::uint64_t, Bucket> exact_;
  std::unordered_map<std::uint64_t, Bucket> shape_;
  std::size_t exact_size_ = 0;  // entries across exact_'s buckets
  std::uint64_t revision_ = 0;
};

}  // namespace icsfuzz::fuzz
