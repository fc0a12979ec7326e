// Instantiation Tree — Definition 1 in the paper: the same shape as the
// data model tree, but with each construction-rule node replaced by a
// realistic data chunk.
//
// Two producers build InsTrees:
//   * the generators (baseline mutator-driven and Peach*'s semantic-aware
//     strategy) build them top-down through a `TreeBuilder`;
//   * the parser (`parse_packet`) builds them bottom-up from wire bytes —
//     this is PARSE(M, Iv) in the paper's Algorithm 2, the entry point of
//     the File Cracker.
//
// File Fixup (§IV-D) rewrites relation-carrying numbers (size-of /
// count-of) from measured sizes and then recomputes checksum fixups,
// innermost first, following the plan the DataModel resolved once (chunk
// ordinals, not names). It has two implementations that must agree byte
// for byte:
//   * `TreeBuilder::apply_constraints` — the generators' path. The builder
//     records the instance's linearisation while it builds (leaves in wire
//     order, each built node's leaf range by ordinal), so sizes are prefix
//     sums and a checksum's input is a run of leaves; no tree walk.
//   * `apply_constraints(InsTree&)` — the tree-walking reference oracle,
//     for parsed trees and tests.
//
// Both sequential generation profiles start a packet from every field at
// its default. `TreeBuilder::rebuild_defaults` records a model's default
// leaf bytes on its first default build and, as long as the model's walk
// meets no Choice (so its shape is fixed), restores them by copy on every
// later one instead of walking the model again; a model with a Choice is
// walked every time, drawing its alternatives in the same order.
#pragma once

#include <cstdint>
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

/// File Fixup by tree walk — the reference oracle of
/// TreeBuilder::apply_constraints: recomputes relation fields and checksum
/// fixups in `tree` so the serialized packet satisfies its integrity
/// constraints. Returns the number of fields rewritten.
std::size_t apply_constraints(InsTree& tree);

/// A *free* leaf: not a token and no relation/fixup — a field sequential
/// mutation may perturb and a donor may replace.
inline bool is_free_leaf(const Chunk& chunk) {
  if (!chunk.is_leaf()) return false;
  const bool derived = chunk.kind() == ChunkKind::Number &&
                       (chunk.number_spec().is_token ||
                        chunk.relation().active() || chunk.fixup().active());
  return !derived;
}

/// Writes a leaf chunk's default content into `out` (cleared first): the
/// default value, padded to a fixed length, plus a string's terminator.
void write_default(const Chunk& leaf, Bytes& out);

/// Builds the default instantiation of a model: every leaf takes its
/// default value, choices take their first alternative, then constraints
/// are applied. The cheapest way to get one valid packet from a model.
InsTree default_instance(const DataModel& model);

/// Renders a one-line-per-node dump of the tree (tests, crash triage).
std::string dump_tree(const InsTree& tree);

/// Rebuilds one model's instantiation tree in place, packet after packet,
/// and records its linearisation as it goes.
///
/// A Choice node holds only its selected alternative. When the selection
/// changes, the old alternative's subtree is parked (indexed by its chunk
/// ordinal) with all its buffers, and the new one is taken out of the park,
/// so every subtree is allocated once and then reused. Not thread-safe;
/// bind one builder to one model for its whole life.
///
/// Callers may rewrite leaf contents (any length) between rebuild() and
/// apply_constraints()/serialize_into(), through leaves(), free_leaves() or
/// tree(); they must not change the tree's shape.
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
    built_.resize(model.node_count());
    leaves_.clear();
    free_leaves_.clear();
    ++epoch_;
    met_choice_ = false;
    build(tree_.root, model.root(), choose, fill);
  }

  /// rebuild() with every leaf at its write_default content. The first
  /// default rebuild of a model whose walk meets no Choice records every
  /// leaf's default bytes in wire order, in one flat buffer plus offsets.
  /// Such a model has one shape, so while the tree holds it, every later
  /// default rebuild copies each leaf back from the buffer instead of
  /// walking the model: leaves(), free_leaves() and the built leaf ranges
  /// are already right. A model whose rebuild meets a Choice is walked as
  /// by rebuild(), calling `choose` in the same pre-order.
  template <typename Choose>
  void rebuild_defaults(const DataModel& model, Choose&& choose) {
    if (defaults_model_ == &model && tree_.model == &model) {
      restore_defaults();
      return;
    }
    rebuild(model, choose, write_default);
    ++default_walks_;
    if (!met_choice_) record_defaults();
  }

  /// rebuild_defaults() calls that walked the model rather than restoring
  /// the recorded defaults.
  [[nodiscard]] std::uint64_t default_walks() const { return default_walks_; }

  /// The last rebuilt tree.
  [[nodiscard]] InsTree& tree() { return tree_; }

  /// The last rebuilt tree's leaves in wire order.
  [[nodiscard]] const std::vector<InsNode*>& leaves() const { return leaves_; }

  /// The subset of leaves() that is_free_leaf, in wire order.
  [[nodiscard]] const std::vector<InsNode*>& free_leaves() const {
    return free_leaves_;
  }

  /// File Fixup on the last rebuilt tree; the same rewrites, in the same
  /// order, as apply_constraints(tree()). Returns the fields rewritten.
  std::size_t apply_constraints();

  /// The packet: the leaves' bytes, concatenated into `out` (cleared first,
  /// capacity retained). A fresh buffer is sized exactly; a reused one
  /// grows geometrically, so it settles at the longest packet.
  void serialize_into(Bytes& out) const;

  /// Value-returning serialize_into, sized exactly.
  [[nodiscard]] Bytes serialize() const {
    Bytes out;
    serialize_into(out);
    return out;
  }

 private:
  /// A node of the last rebuilt tree, by chunk ordinal: the node and its
  /// leaves() range, which is contiguous because its ordinals are. Valid
  /// only when `epoch` is the builder's current one (an unselected Choice
  /// alternative keeps a stale entry).
  struct Built {
    std::uint64_t epoch = 0;
    InsNode* node = nullptr;
    std::uint32_t first_leaf = 0;
    std::uint32_t end_leaf = 0;
  };

  template <typename Choose, typename Fill>
  void build(InsNode& node, const Chunk& chunk, Choose& choose, Fill& fill) {
    node.rule = &chunk;
    Built& entry = built_[chunk.ordinal()];
    entry.epoch = epoch_;
    entry.node = &node;
    entry.first_leaf = static_cast<std::uint32_t>(leaves_.size());
    switch (chunk.kind()) {
      case ChunkKind::Number:
      case ChunkKind::String:
      case ChunkKind::Blob:
        fill(chunk, node.content);
        leaves_.push_back(&node);
        if (is_free_leaf(chunk)) free_leaves_.push_back(&node);
        break;
      case ChunkKind::Block:
        node.children.resize(chunk.children().size());
        for (std::size_t i = 0; i < chunk.children().size(); ++i) {
          build(node.children[i], chunk.children()[i], choose, fill);
        }
        break;
      case ChunkKind::Choice: {
        met_choice_ = true;
        const std::size_t pick = choose(chunk);
        select(node, chunk, pick);
        build(node.children.front(), chunk.children()[pick], choose, fill);
        break;
      }
    }
    entry.end_leaf = static_cast<std::uint32_t>(leaves_.size());
  }

  /// Makes alternative `pick` the Choice node's only child.
  void select(InsNode& node, const Chunk& chunk, std::size_t pick);

  /// The built node of chunk `ordinal`, or nullptr when the last rebuild
  /// did not build it.
  [[nodiscard]] const Built* built(std::uint32_t ordinal) const {
    const Built& entry = built_[ordinal];
    return entry.epoch == epoch_ ? &entry : nullptr;
  }

  /// Recomputes offsets_ from the leaves' current sizes.
  void sum_leaf_sizes();

  /// Records the leaves' current contents as the model's defaults.
  void record_defaults();
  /// Copies the recorded defaults back into the leaves.
  void restore_defaults();

  InsTree tree_;
  std::vector<InsNode> parked_;   // by chunk ordinal
  std::vector<Built> built_;      // by chunk ordinal
  std::uint64_t epoch_ = 0;       // bumped by every rebuild
  std::vector<InsNode*> leaves_;  // wire order
  std::vector<InsNode*> free_leaves_;
  std::vector<std::size_t> offsets_;  // offsets_[i] = bytes before leaf i
  Bytes ref_bytes_;                   // a checksum's input
  bool met_choice_ = false;           // the last rebuild built a Choice
  /// The recorded defaults: leaf i's bytes are
  /// defaults_[default_offsets_[i], default_offsets_[i + 1]).
  const DataModel* defaults_model_ = nullptr;
  Bytes defaults_;
  std::vector<std::size_t> default_offsets_;
  std::uint64_t default_walks_ = 0;
};

}  // namespace icsfuzz::model
