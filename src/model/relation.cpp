#include "model/relation.hpp"

#include <cstdint>

#include "util/strings.hpp"

namespace icsfuzz::model {

std::uint64_t relation_value(const Relation& relation, std::size_t target_bytes) {
  std::int64_t value = 0;
  switch (relation.kind) {
    case RelationKind::None:
      return 0;
    case RelationKind::SizeOf:
      value = static_cast<std::int64_t>(target_bytes);
      break;
    case RelationKind::CountOf: {
      const std::uint32_t unit = relation.unit == 0 ? 1 : relation.unit;
      value = static_cast<std::int64_t>(target_bytes / unit);
      break;
    }
  }
  // Saturating: the value is never negative, so only a bias near INT64_MAX
  // can overflow the sum.
  if (__builtin_add_overflow(value, relation.bias, &value)) value = INT64_MAX;
  return value < 0 ? 0 : static_cast<std::uint64_t>(value);
}

RelationKind relation_kind_from_string(const std::string& text) {
  const std::string lowered = to_lower(text);
  if (lowered == "sizeof" || lowered == "size") return RelationKind::SizeOf;
  if (lowered == "countof" || lowered == "count") return RelationKind::CountOf;
  return RelationKind::None;
}

std::string to_string(RelationKind kind) {
  switch (kind) {
    case RelationKind::None: return "none";
    case RelationKind::SizeOf: return "sizeof";
    case RelationKind::CountOf: return "countof";
  }
  return "none";
}

}  // namespace icsfuzz::model
