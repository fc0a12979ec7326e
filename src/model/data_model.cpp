#include "model/data_model.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <utility>

namespace icsfuzz::model {
namespace {

void collect_leaves(const Chunk& chunk, std::vector<const Chunk*>& out) {
  if (chunk.is_leaf()) {
    out.push_back(&chunk);
    return;
  }
  for (const Chunk& child : chunk.children()) collect_leaves(child, out);
}

const Chunk* find_relation_source(const Chunk& chunk, const std::string& name) {
  if (chunk.relation().active() && chunk.relation().target == name) {
    return &chunk;
  }
  for (const Chunk& child : chunk.children()) {
    if (const Chunk* found = find_relation_source(child, name)) return found;
  }
  return nullptr;
}

std::optional<std::string> validate_chunk(const Chunk& chunk, const Chunk& root,
                                          std::unordered_set<std::string>& names) {
  if (chunk.name().empty()) return "chunk with empty name";
  if (!names.insert(chunk.name()).second) {
    return "duplicate chunk name: " + chunk.name();
  }
  switch (chunk.kind()) {
    case ChunkKind::Number: {
      const NumberSpec& spec = chunk.number_spec();
      if (spec.width == 0 || spec.width > 8) {
        return "number width out of range: " + chunk.name();
      }
      break;
    }
    case ChunkKind::String: {
      const StringSpec& spec = chunk.string_spec();
      if (spec.length && *spec.length == 0 && !spec.null_terminated) {
        return "zero-length string without terminator: " + chunk.name();
      }
      break;
    }
    case ChunkKind::Blob:
      break;
    case ChunkKind::Block:
    case ChunkKind::Choice:
      if (chunk.children().empty()) {
        return "empty composite chunk: " + chunk.name();
      }
      break;
  }
  if (chunk.relation().active()) {
    if (chunk.kind() != ChunkKind::Number) {
      return "relation on non-number chunk: " + chunk.name();
    }
    if (root.find(chunk.relation().target) == nullptr) {
      return "relation target not found: " + chunk.relation().target +
             " (from " + chunk.name() + ")";
    }
  }
  if (chunk.fixup().active()) {
    if (chunk.kind() != ChunkKind::Number) {
      return "fixup on non-number chunk: " + chunk.name();
    }
    if (root.find(chunk.fixup().ref) == nullptr) {
      return "fixup ref not found: " + chunk.fixup().ref + " (from " +
             chunk.name() + ")";
    }
  }
  for (const Chunk& child : chunk.children()) {
    if (auto error = validate_chunk(child, root, names)) return error;
  }
  return std::nullopt;
}

}  // namespace

std::uint64_t InstanceId::next() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void DataModel::number_chunks(Chunk& chunk, std::uint32_t depth,
                              std::vector<const Chunk*>& chunks,
                              std::vector<std::uint32_t>& depths) {
  chunk.ordinal_ = static_cast<std::uint32_t>(chunks.size());
  chunks.push_back(&chunk);
  depths.push_back(depth);
  for (Chunk& child : chunk.children_) {
    number_chunks(child, depth + 1, chunks, depths);
  }
}

DataModel::DataModel(std::string name, Chunk root)
    : name_(std::move(name)), root_(std::move(root)) {
  node_count_ = root_.node_count();
  std::vector<const Chunk*> chunks;  // by ordinal
  std::vector<std::uint32_t> depths;
  chunks.reserve(node_count_);
  depths.reserve(node_count_);
  number_chunks(root_, 0, chunks, depths);

  // Constraint sites are few, so a scan of the numbered chunks resolves
  // each name faster than building a name index would.
  const auto resolve = [&](const Chunk& field, const std::string& target,
                           std::vector<ConstraintSite>& sites) {
    if (field.kind() != ChunkKind::Number) return;
    for (const Chunk* chunk : chunks) {  // first one wins
      if (chunk->name() == target) {
        sites.push_back({field.ordinal(), chunk->ordinal()});
        return;
      }
    }
  };
  for (const Chunk* chunk : chunks) {
    if (chunk->relation().active()) {
      resolve(*chunk, chunk->relation().target, relation_sites_);
    }
    if (chunk->fixup().active()) {
      resolve(*chunk, chunk->fixup().ref, fixup_sites_);
    }
  }
  // Deepest ref first; pre-order (field ordinal) among equals.
  std::sort(fixup_sites_.begin(), fixup_sites_.end(),
            [&](const ConstraintSite& a, const ConstraintSite& b) {
              if (depths[a.target] != depths[b.target]) {
                return depths[a.target] > depths[b.target];
              }
              return a.field < b.field;
            });
}

std::vector<const Chunk*> DataModel::linear() const {
  std::vector<const Chunk*> out;
  if (root_.is_leaf() || root_.kind() == ChunkKind::Choice) {
    out.push_back(&root_);
    return out;
  }
  out.reserve(root_.children().size());
  for (const Chunk& child : root_.children()) out.push_back(&child);
  return out;
}

std::vector<const Chunk*> DataModel::leaves() const {
  std::vector<const Chunk*> out;
  collect_leaves(root_, out);
  return out;
}

const Chunk* DataModel::find(const std::string& name) const {
  return root_.find(name);
}

const Chunk* DataModel::relation_source_for(const std::string& name) const {
  return find_relation_source(root_, name);
}

std::optional<std::string> DataModel::validate() const {
  std::unordered_set<std::string> names;
  return validate_chunk(root_, root_, names);
}

DataModelSet::DataModelSet(std::vector<DataModel> models)
    : models_(std::move(models)) {}

void DataModelSet::add(DataModel model) { models_.push_back(std::move(model)); }

const DataModel* DataModelSet::find(const std::string& name) const {
  for (const DataModel& model : models_) {
    if (model.name() == name) return &model;
  }
  return nullptr;
}

std::optional<std::string> DataModelSet::validate() const {
  for (const DataModel& model : models_) {
    if (auto error = model.validate()) {
      return "model " + model.name() + ": " + *error;
    }
  }
  return std::nullopt;
}

}  // namespace icsfuzz::model
