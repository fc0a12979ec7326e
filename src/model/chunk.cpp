#include "model/chunk.hpp"

#include <utility>

namespace icsfuzz::model {
namespace {

std::uint64_t hash_mix(std::uint64_t hash, std::uint64_t value) {
  hash ^= value + 0x9E3779B97F4A7C15ULL + (hash << 6) + (hash >> 2);
  return hash;
}

std::uint64_t hash_string(std::uint64_t hash, const std::string& text) {
  for (char c : text) hash = hash_mix(hash, static_cast<std::uint8_t>(c));
  return hash;
}

}  // namespace

std::string to_string(ChunkKind kind) {
  switch (kind) {
    case ChunkKind::Number: return "Number";
    case ChunkKind::String: return "String";
    case ChunkKind::Blob: return "Blob";
    case ChunkKind::Block: return "Block";
    case ChunkKind::Choice: return "Choice";
  }
  return "?";
}

Chunk Chunk::number(std::string name, NumberSpec spec) {
  Chunk chunk(std::move(name), ChunkKind::Number);
  if (spec.width == 0) spec.width = 1;
  if (spec.width > 8) spec.width = 8;
  chunk.number_ = std::move(spec);
  chunk.tag_ = chunk.name_;
  chunk.compute_keys();
  return chunk;
}

Chunk Chunk::token(std::string name, std::size_t width, Endian endian,
                   std::uint64_t value) {
  NumberSpec spec;
  spec.width = width;
  spec.endian = endian;
  spec.default_value = value;
  spec.is_token = true;
  spec.legal_values = {value};
  return number(std::move(name), std::move(spec));
}

Chunk Chunk::string(std::string name, StringSpec spec) {
  Chunk chunk(std::move(name), ChunkKind::String);
  chunk.string_ = std::move(spec);
  chunk.tag_ = chunk.name_;
  chunk.compute_keys();
  return chunk;
}

Chunk Chunk::blob(std::string name, BlobSpec spec) {
  Chunk chunk(std::move(name), ChunkKind::Blob);
  if (spec.unit == 0) spec.unit = 1;
  chunk.blob_ = std::move(spec);
  chunk.tag_ = chunk.name_;
  chunk.compute_keys();
  return chunk;
}

Chunk Chunk::block(std::string name, std::vector<Chunk> children) {
  Chunk chunk(std::move(name), ChunkKind::Block);
  chunk.children_ = std::move(children);
  chunk.tag_ = chunk.name_;
  chunk.compute_keys();
  return chunk;
}

Chunk Chunk::choice(std::string name, std::vector<Chunk> children) {
  Chunk chunk(std::move(name), ChunkKind::Choice);
  chunk.children_ = std::move(children);
  chunk.tag_ = chunk.name_;
  chunk.compute_keys();
  return chunk;
}

Chunk& Chunk::with_tag(std::string tag) {
  tag_ = std::move(tag);
  compute_keys();
  return *this;
}

Chunk& Chunk::with_relation(Relation relation) {
  relation_ = std::move(relation);
  compute_keys();
  return *this;
}

Chunk& Chunk::with_fixup(Fixup fixup) {
  fixup_ = std::move(fixup);
  compute_keys();
  return *this;
}

void Chunk::compute_keys() {
  std::uint64_t hash = 0xC0FFEE ^ static_cast<std::uint64_t>(kind_);
  switch (kind_) {
    case ChunkKind::Number:
      hash = hash_mix(hash, number_.width);
      hash = hash_mix(hash, static_cast<std::uint64_t>(number_.endian));
      break;
    case ChunkKind::String:
      hash = hash_mix(hash, string_.length.value_or(0));
      hash = hash_mix(hash, string_.null_terminated ? 1 : 0);
      break;
    case ChunkKind::Blob:
      hash = hash_mix(hash, blob_.length.value_or(0));
      hash = hash_mix(hash, blob_.unit);
      break;
    case ChunkKind::Block:
    case ChunkKind::Choice:
      // A composite's shape is the ordered shape of its children.
      for (const Chunk& child : children_) {
        hash = hash_mix(hash, child.shape_key_);
      }
      break;
  }
  shape_key_ = hash;

  hash = hash_string(hash, tag_);
  // A relation- or fixup-carrying field is derived data, not free data; its
  // rule identity must not collide with a free field of the same shape.
  hash = hash_mix(hash, static_cast<std::uint64_t>(relation_.kind));
  hash = hash_mix(hash, static_cast<std::uint64_t>(fixup_.kind));
  rule_key_ = hash;
}

std::optional<std::size_t> Chunk::fixed_width() const {
  switch (kind_) {
    case ChunkKind::Number:
      return number_.width;
    case ChunkKind::String:
      if (string_.length) {
        return *string_.length + (string_.null_terminated ? 1 : 0);
      }
      return std::nullopt;
    case ChunkKind::Blob:
      return blob_.length;
    case ChunkKind::Block: {
      std::size_t total = 0;
      for (const Chunk& child : children_) {
        const auto width = child.fixed_width();
        if (!width) return std::nullopt;
        total += *width;
      }
      return total;
    }
    case ChunkKind::Choice: {
      // Fixed only when all alternatives agree.
      std::optional<std::size_t> common;
      for (const Chunk& child : children_) {
        const auto width = child.fixed_width();
        if (!width) return std::nullopt;
        if (common && *common != *width) return std::nullopt;
        common = width;
      }
      return common;
    }
  }
  return std::nullopt;
}

const Chunk* Chunk::find(const std::string& name) const {
  if (name_ == name) return this;
  for (const Chunk& child : children_) {
    if (const Chunk* found = child.find(name)) return found;
  }
  return nullptr;
}

std::size_t Chunk::node_count() const {
  std::size_t count = 1;
  for (const Chunk& child : children_) count += child.node_count();
  return count;
}

}  // namespace icsfuzz::model
