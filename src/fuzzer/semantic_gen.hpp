// Semantic-aware generation — Algorithm 3 of the paper, plus the File
// Fixup pass (§IV-D).
//
// Two modes:
//   * `generate` — steady-state single seed: walk the model; at every chunk
//     whose construction rule has donors in the puzzle corpus, splice a
//     donor (exact tier first, similar tier as fallback) with probability
//     `donor_use_pct`, otherwise fall back to the inherent mutator
//     generation; recurse into composites so donated leaves can mix with
//     fresh siblings.
//   * `generate_batch` — the paper's combinatorial construction applied
//     right after a crack: enumerate donor candidates position by position
//     (the p x q product of Algorithm 3), bounded by `max_batch`.
//
// Both modes finish with TreeBuilder::apply_constraints — the File Fixup
// module — so spliced seeds regain their size-of/count-of/CRC integrity.
//
// Both build into the instantiator's reused per-model trees, so `generate`
// is allocation-free once warm; like the instantiator, a generator is not
// thread-safe.
#pragma once

#include <unordered_map>

#include "fuzzer/corpus.hpp"
#include "fuzzer/instantiator.hpp"
#include "model/data_model.hpp"

namespace icsfuzz::fuzz {

struct SemanticGenConfig {
  /// Probability (percent) of using an available donor at a chunk position
  /// in a donor-heavy seed. Each generated seed rolls one of three donor
  /// intensities — heavy (this value), medium (half), light (explore_pct) —
  /// so the stream mixes gate-passing exploitation with value exploration.
  unsigned donor_use_pct = 80;
  /// Donor probability of the exploration-leaning intensity.
  unsigned explore_pct = 15;
  /// Probability (percent) of applying a byte-level mutation to donated
  /// bytes — the paper's "mutation on existing chunks" (§II) applied to
  /// corpus material.
  unsigned mutate_donor_pct = 20;
  /// Probability (percent) that the similar-shape tier is consulted when
  /// the exact tier has no candidates.
  unsigned similar_tier_pct = 30;
  /// Upper bound on seeds produced by one generate_batch call.
  std::size_t max_batch = 24;
  /// Upper bound on donor candidates enumerated per position in batch mode.
  std::size_t candidates_per_position = 4;
  /// Run the File Fixup pass on spliced seeds. Disabling this is the
  /// paper-motivating ablation: donated pieces break size/CRC integrity and
  /// die in framing validation.
  bool apply_file_fixup = true;
};

class SemanticGenerator {
 public:
  SemanticGenerator(SemanticGenConfig config, mutation::MutatorConfig mutators)
      : config_(config), instantiator_(mutators) {}

  /// Steady-state semantic-aware generation of one seed, serialized into
  /// `out` (cleared first, capacity retained).
  void generate_into(const model::DataModel& model, const PuzzleCorpus& corpus,
                     Rng& rng, Bytes& out) const;

  /// Value-returning generate_into (tests).
  Bytes generate(const model::DataModel& model, const PuzzleCorpus& corpus,
                 Rng& rng) const {
    Bytes out;
    generate_into(model, corpus, rng, out);
    return out;
  }

  /// Post-crack combinatorial batch (Algorithm 3's cartesian construction).
  std::vector<Bytes> generate_batch(const model::DataModel& model,
                                    const PuzzleCorpus& corpus,
                                    Rng& rng) const;

  [[nodiscard]] const SemanticGenConfig& config() const { return config_; }

  /// The inherent generator this one falls back to (and whose per-model
  /// trees it builds into).
  [[nodiscard]] const ModelInstantiator& instantiator() const {
    return instantiator_;
  }

 private:
  /// Leaf pins of one batch seed: chunk -> donated bytes.
  using Pins = std::unordered_map<const model::Chunk*, const Bytes*>;

  /// Rebuilds `model`'s tree donor-aware: at every free leaf, a donor with
  /// probability `donor_pct` (Algorithm 3's GETDONOR), else the inherent
  /// rule. With `pins`, pinned leaves take their pinned bytes and a Choice
  /// prefers an alternative holding a pinned leaf. No File Fixup. Returns
  /// the model's builder.
  model::TreeBuilder& rebuild_with_donors(const model::DataModel& model,
                                          const PuzzleCorpus& corpus,
                                          Rng& rng, unsigned donor_pct,
                                          const Pins* pins) const;

  /// GETDONOR: the exact-tier donors of `leaf`, else (sometimes) the
  /// similar tier; nullptr when neither applies.
  const std::vector<Bytes>* donor_pool(const model::Chunk& leaf,
                                       const PuzzleCorpus& corpus,
                                       Rng& rng) const;

  /// "Mutation on existing chunks": perturbs `content` in place, keeping a
  /// fixed-width leaf at its width.
  void mutate_leaf(const model::Chunk& leaf, Rng& rng, Bytes& content) const;

  /// Rolls this seed's donor intensity (heavy / medium / light).
  unsigned roll_donor_intensity(Rng& rng) const;

  SemanticGenConfig config_;
  ModelInstantiator instantiator_;
};

}  // namespace icsfuzz::fuzz
