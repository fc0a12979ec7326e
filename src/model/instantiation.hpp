// Instantiation Tree — Definition 1 in the paper: the same shape as the
// data model tree, but with each construction-rule node replaced by a
// realistic data chunk.
//
// Two producers build InsTrees:
//   * the generators (baseline mutator-driven and Peach*'s semantic-aware
//     strategy) build them top-down, then serialize;
//   * the parser (`parse_packet`) builds them bottom-up from wire bytes —
//     this is PARSE(M, Iv) in the paper's Algorithm 2, the entry point of
//     the File Cracker.
//
// `apply_constraints` implements the File Fixup module (§IV-D): it rewrites
// relation-carrying numbers (size-of / count-of) from measured child sizes
// and then recomputes checksum fixups, innermost first. It follows the plan
// the DataModel resolved once (chunk ordinals, not names).
//
// `TreeBuilder` is how the generators build packet after packet without
// touching the heap: it rebuilds one model's tree in place, so node vectors
// and content buffers keep their capacity.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/data_model.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::model {

/// One node of an instantiation tree.
///
/// Leaf nodes hold `content` (their wire bytes); composite nodes hold
/// children.
struct InsNode {
  const Chunk* rule = nullptr;     // borrowed from the DataModel (must outlive)
  Bytes content;                   // leaf bytes
  std::vector<InsNode> children;   // composite structure

  /// For a Choice node: index of the alternative it holds (the one that
  /// matched, for a parsed tree).
  std::optional<std::size_t> choice_index;

  [[nodiscard]] bool is_composite() const {
    return rule != nullptr && !rule->is_leaf();
  }

  /// Serialized wire bytes of this subtree (a "puzzle" per Definition 2).
  [[nodiscard]] Bytes serialize() const;

  /// Appends this subtree's wire bytes to `out` without clearing it — the
  /// allocation-free core of serialize(); callers own the buffer.
  void serialize_append(Bytes& out) const;

  /// Serialized byte length without materialising the bytes.
  [[nodiscard]] std::size_t serialized_size() const;

  /// DFS lookup by rule name within this subtree.
  [[nodiscard]] InsNode* find(const std::string& name);
  [[nodiscard]] const InsNode* find(const std::string& name) const;

  /// Node count (tests/diagnostics).
  [[nodiscard]] std::size_t node_count() const;
};

/// A complete instantiation of one data model.
struct InsTree {
  const DataModel* model = nullptr;  // borrowed; must outlive the tree
  InsNode root;

  [[nodiscard]] Bytes serialize() const { return root.serialize(); }

  /// Serializes into a caller-owned buffer (cleared first, capacity
  /// retained) — the packet pipeline's zero-allocation serialization path.
  /// A fresh buffer is sized exactly; a reused one grows geometrically, so
  /// it settles at the longest packet.
  void serialize_into(Bytes& out) const {
    out.clear();
    const std::size_t size = root.serialized_size();
    if (size > out.capacity()) {
      out.reserve(std::max(size, 2 * out.capacity()));
    }
    root.serialize_append(out);
  }
};

/// Options controlling `parse_packet`.
struct ParseOptions {
  /// Require every byte of the packet to be consumed (the LEGAL test).
  bool require_full_consumption = true;
  /// Verify checksum fixups against recomputed values.
  bool verify_fixups = true;
  /// Verify size-of / count-of fields against measured sizes.
  bool verify_relations = true;
};

/// PARSE(M, Iv): parses `packet` against `model`. Returns nullopt when the
/// packet is not legal under the model (token mismatch, truncation, length
/// inconsistency, failed checksum, trailing garbage).
std::optional<InsTree> parse_packet(const DataModel& model, ByteSpan packet,
                                    const ParseOptions& options = {});

/// Buffers apply_constraints reuses: the tree's nodes by chunk ordinal and
/// the bytes a checksum is computed over.
struct ConstraintScratch {
  std::vector<InsNode*> by_ordinal;
  Bytes ref_bytes;
};

/// File Fixup: recomputes relation fields and checksum fixups in `tree` so
/// the serialized packet satisfies its integrity constraints. Returns the
/// number of fields rewritten. Allocation-free once `scratch` has grown to
/// the model.
std::size_t apply_constraints(InsTree& tree, ConstraintScratch& scratch);

/// apply_constraints with throwaway scratch.
std::size_t apply_constraints(InsTree& tree);

/// Writes a leaf chunk's default content into `out` (cleared first): the
/// default value, padded to a fixed length, plus a string's terminator.
void write_default(const Chunk& leaf, Bytes& out);

/// Builds the default instantiation of a model: every leaf takes its
/// default value, choices take their first alternative, then constraints
/// are applied. The cheapest way to get one valid packet from a model.
InsTree default_instance(const DataModel& model);

/// Renders a one-line-per-node dump of the tree (tests, crash triage).
std::string dump_tree(const InsTree& tree);

/// Rebuilds one model's instantiation tree in place, packet after packet.
///
/// A Choice node holds only its selected alternative. When the selection
/// changes, the old alternative's subtree is parked (indexed by its chunk
/// ordinal) with all its buffers, and the new one is taken out of the park,
/// so every subtree is allocated once and then reused. Not thread-safe;
/// bind one builder to one model for its whole life.
class TreeBuilder {
 public:
  /// Rebuilds the tree as an instance of `model`, visiting chunks in
  /// pre-order exactly as a fresh recursive build would:
  /// `choose(choice_chunk)` returns each Choice's alternative index and
  /// `fill(leaf_chunk, content)` writes each leaf. Constraints are not
  /// applied.
  template <typename Choose, typename Fill>
  void rebuild(const DataModel& model, Choose&& choose, Fill&& fill) {
    tree_.model = &model;
    parked_.resize(model.node_count());
    build(tree_.root, model.root(), choose, fill);
  }

  /// The last rebuilt tree.
  [[nodiscard]] InsTree& tree() { return tree_; }

  /// File Fixup on the last rebuilt tree.
  std::size_t apply_constraints() {
    return model::apply_constraints(tree_, constraints_);
  }

 private:
  template <typename Choose, typename Fill>
  void build(InsNode& node, const Chunk& chunk, Choose& choose, Fill& fill) {
    node.rule = &chunk;
    switch (chunk.kind()) {
      case ChunkKind::Number:
      case ChunkKind::String:
      case ChunkKind::Blob:
        fill(chunk, node.content);
        return;
      case ChunkKind::Block:
        node.children.resize(chunk.children().size());
        for (std::size_t i = 0; i < chunk.children().size(); ++i) {
          build(node.children[i], chunk.children()[i], choose, fill);
        }
        return;
      case ChunkKind::Choice: {
        const std::size_t pick = choose(chunk);
        select(node, chunk, pick);
        build(node.children.front(), chunk.children()[pick], choose, fill);
        return;
      }
    }
  }

  /// Makes alternative `pick` the Choice node's only child.
  void select(InsNode& node, const Chunk& chunk, std::size_t pick);

  InsTree tree_;
  std::vector<InsNode> parked_;  // by chunk ordinal
  ConstraintScratch constraints_;
};

}  // namespace icsfuzz::model
