// Chunk — one node of a Peach data model tree (paper Figure 1).
//
// A chunk is a *construction rule*: it says how to produce (and how to
// re-parse) one region of a packet. Leaf kinds are Number, String and Blob;
// Block composes children in order; Choice selects one of several
// alternative children (how ICS pits model per-function-code payloads).
//
// Two hash keys identify a chunk's construction rule for the puzzle corpus
// (paper §IV-C/D):
//   * rule_key  — exact rule identity: kind + shape + semantic tag. Chunks
//     in *different* data models that represent the same protocol concept
//     (e.g. "register address") share a tag, which is precisely the
//     cross-packet-type similarity Peach* exploits.
//   * shape_key — weaker tier: kind + shape only, used as a fallback donor
//     match ("similar construction rules" in the paper's wording).
// Both are computed once, when the chunk is built (a composite's shape
// from its children's stored keys), and rule_key is refreshed by the
// setters: a chunk's children never change after construction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/fixup.hpp"
#include "model/relation.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::model {

enum class ChunkKind : std::uint8_t { Number, String, Blob, Block, Choice };

std::string to_string(ChunkKind kind);

/// Numeric leaf: fixed-width unsigned integer field.
struct NumberSpec {
  std::size_t width = 1;           // bytes, 1..8
  Endian endian = Endian::Big;
  std::uint64_t default_value = 0;
  bool is_token = false;           // constant marker; anchors parsing
  /// Enumerated legal values (e.g. defined function codes); generation
  /// prefers these, parsing does not require them unless token.
  std::vector<std::uint64_t> legal_values;
  /// Optional closed range hint for generation.
  std::optional<std::uint64_t> min_value;
  std::optional<std::uint64_t> max_value;
};

/// Text leaf: ASCII string field.
struct StringSpec {
  std::optional<std::size_t> length;  // fixed byte length when set
  std::string default_value;
  bool null_terminated = false;       // parse/serialize a trailing NUL
  std::size_t max_generated = 32;     // generation length cap when variable
};

/// Raw byte leaf. Length is resolved, in priority order, from (1) a SizeOf /
/// CountOf relation elsewhere in the model, (2) the fixed `length`, or
/// (3) "rest of the enclosing scope".
struct BlobSpec {
  std::optional<std::size_t> length;
  Bytes default_value;
  std::size_t max_generated = 64;  // generation length cap when variable
  /// Element width for CountOf-driven lengths (wire bytes = count * unit).
  std::uint32_t unit = 1;
};

class Chunk {
 public:
  // -- Factories (the only way to build chunks; keeps invariants local). --
  static Chunk number(std::string name, NumberSpec spec);
  static Chunk token(std::string name, std::size_t width, Endian endian,
                     std::uint64_t value);
  static Chunk string(std::string name, StringSpec spec);
  static Chunk blob(std::string name, BlobSpec spec);
  static Chunk block(std::string name, std::vector<Chunk> children);
  static Chunk choice(std::string name, std::vector<Chunk> children);

  // -- Fluent attribute setters (return *this for builder-style pits). --
  Chunk& with_tag(std::string tag);
  Chunk& with_relation(Relation relation);
  Chunk& with_fixup(Fixup fixup);

  // -- Accessors. --
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& tag() const { return tag_; }
  [[nodiscard]] ChunkKind kind() const { return kind_; }
  [[nodiscard]] bool is_leaf() const {
    return kind_ == ChunkKind::Number || kind_ == ChunkKind::String ||
           kind_ == ChunkKind::Blob;
  }

  [[nodiscard]] const NumberSpec& number_spec() const { return number_; }
  [[nodiscard]] const StringSpec& string_spec() const { return string_; }
  [[nodiscard]] const BlobSpec& blob_spec() const { return blob_; }

  [[nodiscard]] const Relation& relation() const { return relation_; }
  [[nodiscard]] const Fixup& fixup() const { return fixup_; }

  [[nodiscard]] const std::vector<Chunk>& children() const { return children_; }

  /// Exact construction-rule identity (see file comment).
  [[nodiscard]] std::uint64_t rule_key() const { return rule_key_; }

  /// Weaker "similar rule" identity.
  [[nodiscard]] std::uint64_t shape_key() const { return shape_key_; }

  /// Fixed serialized width when statically known (Number always; String /
  /// Blob with fixed length; Block when all children are fixed).
  [[nodiscard]] std::optional<std::size_t> fixed_width() const;

  /// Depth-first search for a descendant (or this) by name.
  [[nodiscard]] const Chunk* find(const std::string& name) const;

  /// Total node count of this subtree (diagnostics / tests).
  [[nodiscard]] std::size_t node_count() const;

  /// Pre-order position in the owning DataModel's tree (root = 0), assigned
  /// when the model is constructed; a subtree's ordinals are contiguous.
  /// 0 for a chunk that belongs to no model.
  [[nodiscard]] std::uint32_t ordinal() const { return ordinal_; }

 private:
  friend class DataModel;  // assigns ordinals

  Chunk(std::string name, ChunkKind kind) : name_(std::move(name)), kind_(kind) {}

  /// Sets shape_key_ from the spec or the children's stored keys, then
  /// rule_key_ from it and the tag, relation and fixup.
  void compute_keys();

  std::string name_;
  std::string tag_;  // semantic tag; defaults to name
  ChunkKind kind_;
  NumberSpec number_;
  StringSpec string_;
  BlobSpec blob_;
  Relation relation_;
  Fixup fixup_;
  std::vector<Chunk> children_;
  std::uint64_t shape_key_ = 0;
  std::uint64_t rule_key_ = 0;
  std::uint32_t ordinal_ = 0;
};

}  // namespace icsfuzz::model
