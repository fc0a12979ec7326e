#include "fuzzer/semantic_gen.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

namespace icsfuzz::fuzz {
namespace {

// Donation happens at *leaf* granularity, on free leaves only
// (model::is_free_leaf): the paper's linear model ML (Figure 2a)
// is the flat sequence of chunk construction rules, and a donated leaf
// splices into freshly generated siblings. Composite puzzles stay in the
// corpus (Definition 2) but are not replayed wholesale — replaying whole
// packets would collapse exploration into repetition.

/// True when `leaf` lies in the subtree of `chunk` (ordinals of a subtree
/// are contiguous).
bool contains(const model::Chunk& chunk, const model::Chunk& leaf) {
  return leaf.ordinal() >= chunk.ordinal() &&
         leaf.ordinal() < chunk.ordinal() + chunk.node_count();
}

}  // namespace

unsigned SemanticGenerator::roll_donor_intensity(Rng& rng) const {
  switch (rng.below(3)) {
    case 0: return config_.donor_use_pct;       // heavy: pass learned gates
    case 1: return config_.donor_use_pct / 2;   // medium blend
    default: return config_.explore_pct;        // light: explore values
  }
}

const std::vector<Bytes>* SemanticGenerator::donor_pool(
    const model::Chunk& leaf, const PuzzleCorpus& corpus, Rng& rng) const {
  const std::vector<Bytes>* pool = corpus.exact_candidates(leaf);
  if (pool == nullptr && rng.chance(config_.similar_tier_pct, 100)) {
    pool = corpus.similar_candidates(leaf);
  }
  return pool;
}

void SemanticGenerator::mutate_leaf(const model::Chunk& leaf, Rng& rng,
                                    Bytes& content) const {
  const std::size_t original_size = content.size();
  instantiator_.mutators().mutate_in_place(content, rng);
  if (leaf.fixed_width().has_value()) content.resize(original_size, 0);
}

model::TreeBuilder& SemanticGenerator::rebuild_with_donors(
    const model::DataModel& model, const PuzzleCorpus& corpus, Rng& rng,
    unsigned donor_pct, const Pins* pins) const {
  const auto choose = [&](const model::Chunk& choice) {
    std::size_t pick = ModelInstantiator::RandomChoice{rng}(choice);
    if (pins != nullptr) {
      // Prefer an alternative that contains a pinned leaf.
      for (std::size_t i = 0; i < choice.children().size(); ++i) {
        for (const auto& [leaf, bytes] : *pins) {
          if (contains(choice.children()[i], *leaf)) {
            pick = i;
            break;
          }
        }
      }
    }
    return pick;
  };
  const auto fill = [&](const model::Chunk& leaf, Bytes& content) {
    if (pins != nullptr) {
      if (auto it = pins->find(&leaf); it != pins->end()) {
        content = *it->second;
        return;
      }
    }
    if (model::is_free_leaf(leaf) && rng.chance(donor_pct, 100)) {
      if (const std::vector<Bytes>* pool = donor_pool(leaf, corpus, rng)) {
        content = rng.pick(*pool);
        // "Mutation on existing chunks": occasionally perturb the donated
        // bytes so learned values seed neighbourhood exploration.
        if (rng.chance(config_.mutate_donor_pct, 100)) {
          mutate_leaf(leaf, rng, content);
        }
        return;
      }
    }
    instantiator_.mutators().generate_leaf_into(leaf, rng, content);
  };
  model::TreeBuilder& builder = instantiator_.tree_for(model);
  builder.rebuild(model, choose, fill);
  return builder;
}

void SemanticGenerator::generate_into(const model::DataModel& model,
                                      const PuzzleCorpus& corpus, Rng& rng,
                                      Bytes& out) const {
  model::TreeBuilder* builder = nullptr;
  if (rng.chance(60, 100)) {
    // Donor-recombination profile: the structural counterpart of Peach's
    // sequential mutation. Every free field takes either a donated puzzle
    // or its default, then 0-2 fields go aberrant. This is what reaches
    // multi-field non-default combinations — each learned separately from
    // different valuable seeds — that single-field mutation cannot.
    builder = &instantiator_.build_defaults(model, rng);
    const std::vector<model::InsNode*>& leaves = builder->free_leaves();
    const unsigned donor_pct = roll_donor_intensity(rng);
    for (model::InsNode* leaf : leaves) {
      if (!rng.chance(donor_pct, 100)) continue;
      const std::vector<Bytes>* pool = donor_pool(*leaf->rule, corpus, rng);
      if (pool != nullptr) leaf->content = rng.pick(*pool);
    }
    if (!leaves.empty() && rng.chance(2, 3)) {
      const std::size_t perturbations =
          rng.chance(1, 3) && leaves.size() > 1 ? 2 : 1;
      for (std::size_t i = 0; i < perturbations; ++i) {
        model::InsNode* leaf = rng.pick(leaves);
        if (rng.chance(config_.mutate_donor_pct, 100) &&
            !leaf->content.empty()) {
          mutate_leaf(*leaf->rule, rng, leaf->content);
        } else {
          instantiator_.mutators().generate_leaf_into(*leaf->rule, rng,
                                                      leaf->content);
        }
      }
    }
  } else {
    const unsigned donor_pct = roll_donor_intensity(rng);
    builder = &rebuild_with_donors(model, corpus, rng, donor_pct, nullptr);
  }
  if (config_.apply_file_fixup) {
    builder->apply_constraints();  // File Fixup
  }
  builder->serialize_into(out);
}

std::vector<Bytes> SemanticGenerator::generate_batch(
    const model::DataModel& model, const PuzzleCorpus& corpus,
    Rng& rng) const {
  std::vector<Bytes> out;

  // The linear model: every donor-eligible leaf that actually has exact-tier
  // candidates becomes an enumeration position (GETDONOR non-empty); all
  // other chunks fall back to the inherent rule (Algorithm 3 lines 14-15).
  struct Position {
    const model::Chunk* leaf = nullptr;
    const std::vector<Bytes>* candidates = nullptr;
  };
  std::vector<Position> positions;
  for (const model::Chunk* leaf : model.leaves()) {
    if (!model::is_free_leaf(*leaf)) continue;
    if (const std::vector<Bytes>* candidates = corpus.exact_candidates(*leaf)) {
      positions.push_back({leaf, candidates});
    }
  }
  if (positions.empty()) return out;

  // Bound the product: shuffle, keep a handful of positions, and sample at
  // most candidates_per_position donors per position.
  rng.shuffle(positions);
  constexpr std::size_t kMaxPositions = 3;
  if (positions.size() > kMaxPositions) positions.resize(kMaxPositions);

  std::vector<std::vector<const Bytes*>> choices(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    std::vector<std::size_t> order(positions[i].candidates->size());
    for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
    rng.shuffle(order);
    const std::size_t take =
        std::min(order.size(), config_.candidates_per_position);
    for (std::size_t j = 0; j < take; ++j) {
      choices[i].push_back(&(*positions[i].candidates)[order[j]]);
    }
  }

  // Recursive construct: depth-first product over the selected positions.
  // Unpinned leaves come from the donor-aware generator at medium intensity.
  Pins pins;
  const std::function<void(std::size_t)> construct = [&](std::size_t pos) {
    if (out.size() >= config_.max_batch) return;
    if (pos == positions.size()) {
      model::TreeBuilder& builder = rebuild_with_donors(
          model, corpus, rng, config_.donor_use_pct / 2, &pins);
      if (config_.apply_file_fixup) {
        builder.apply_constraints();  // File Fixup
      }
      out.push_back(builder.serialize());
      return;
    }
    for (const Bytes* candidate : choices[pos]) {
      pins[positions[pos].leaf] = candidate;
      construct(pos + 1);
      if (out.size() >= config_.max_batch) break;
    }
    pins.erase(positions[pos].leaf);
  };
  construct(0);
  return out;
}

}  // namespace icsfuzz::fuzz
