// DataModel — one packet type's format tree, plus the linearisation the
// paper calls the "linear model ML" (§III, Figure 2a).
//
// A format specification (a Pit) yields a *set* of data models, one per
// packet type / function code; EXTRACTDATAMODEL in the paper's Algorithms 1
// and 2 corresponds to DataModelSet.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "model/chunk.hpp"

namespace icsfuzz::model {

/// A process-unique id that is fresh on every construction, copy and
/// assignment, so a cache keyed by it never mistakes an object for a
/// destroyed one that lived at the same address. (noexcept, so a
/// DataModel stays nothrow-movable and vectors of them move, not copy.)
class InstanceId {
 public:
  InstanceId() noexcept : value_(next()) {}
  InstanceId(const InstanceId&) noexcept : value_(next()) {}
  InstanceId& operator=(const InstanceId&) noexcept {
    value_ = next();
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  static std::uint64_t next() noexcept;
  std::uint64_t value_;
};

/// One integrity constraint of the File Fixup plan: the Number chunk that
/// carries it and the chunk it measures or checksums, both as ordinals.
struct ConstraintSite {
  std::uint32_t field = 0;
  std::uint32_t target = 0;
};

class DataModel {
 public:
  /// Numbers the chunks in pre-order and resolves the File Fixup plan once:
  /// relation targets and fixup refs name chunks, and names are unique
  /// within a model (validate()), so each resolves to one ordinal. A ref
  /// that names no chunk constrains nothing.
  DataModel(std::string name, Chunk root);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Chunk& root() const { return root_; }

  /// The function-code/opcode value this model produces, when the model
  /// represents one concrete packet type (metadata used by reports).
  [[nodiscard]] std::optional<std::uint64_t> opcode() const { return opcode_; }
  void set_opcode(std::uint64_t opcode) { opcode_ = opcode; }

  /// Linear model ML: the top-level fields in wire order (children of the
  /// root block, or the root itself when it is a leaf).
  [[nodiscard]] std::vector<const Chunk*> linear() const;

  /// All leaves in wire order (diagnostics, tests).
  [[nodiscard]] std::vector<const Chunk*> leaves() const;

  /// Finds any chunk by name (unique within a model; see validate()).
  [[nodiscard]] const Chunk* find(const std::string& name) const;

  /// Finds the Number chunk that carries a SizeOf/CountOf relation whose
  /// target is `name`, or nullptr (used by the parser to resolve variable
  /// lengths).
  [[nodiscard]] const Chunk* relation_source_for(const std::string& name) const;

  /// Structural validation; returns a human-readable error for the first
  /// problem found (duplicate names, dangling relation/fixup refs, zero
  /// widths, empty composites), or nullopt when well-formed.
  [[nodiscard]] std::optional<std::string> validate() const;

  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  /// Size-of / count-of fields and their targets, in pre-order.
  [[nodiscard]] const std::vector<ConstraintSite>& relation_sites() const {
    return relation_sites_;
  }
  /// Checksum fields and their refs, innermost ref first (so an outer
  /// checksum covers an inner one's final bytes), pre-order among equals.
  /// Static: an instantiation tree's depths mirror the model's.
  [[nodiscard]] const std::vector<ConstraintSite>& fixup_sites() const {
    return fixup_sites_;
  }

  /// Identity of this model object for per-model generator scratch.
  [[nodiscard]] std::uint64_t instance_id() const { return id_.value(); }

 private:
  /// Assigns pre-order ordinals under `chunk`, recording each chunk and its
  /// depth by ordinal.
  static void number_chunks(Chunk& chunk, std::uint32_t depth,
                            std::vector<const Chunk*>& chunks,
                            std::vector<std::uint32_t>& depths);

  std::string name_;
  Chunk root_;
  std::optional<std::uint64_t> opcode_;
  std::size_t node_count_ = 0;
  std::vector<ConstraintSite> relation_sites_;
  std::vector<ConstraintSite> fixup_sites_;
  InstanceId id_;
};

static_assert(std::is_nothrow_move_constructible_v<DataModel>);

/// The data-model set extracted from one format specification.
class DataModelSet {
 public:
  DataModelSet() = default;
  explicit DataModelSet(std::vector<DataModel> models);

  void add(DataModel model);

  [[nodiscard]] const std::vector<DataModel>& models() const { return models_; }
  [[nodiscard]] std::size_t size() const { return models_.size(); }
  [[nodiscard]] bool empty() const { return models_.empty(); }

  [[nodiscard]] const DataModel& at(std::size_t index) const {
    return models_.at(index);
  }

  [[nodiscard]] const DataModel* find(const std::string& name) const;

  /// Validates every model; first error wins.
  [[nodiscard]] std::optional<std::string> validate() const;

 private:
  std::vector<DataModel> models_;
};

}  // namespace icsfuzz::model
