#include "model/instantiation.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <utility>

#include "util/hexdump.hpp"

namespace icsfuzz::model {
namespace {

// Resolved variable-length information gathered while parsing: maps a chunk
// name to the *byte length* its relation source dictates.
using LengthEnv = std::unordered_map<std::string, std::size_t>;

/// Inverts relation_value: given the parsed field value, how many wire bytes
/// does the target occupy?
std::optional<std::size_t> target_bytes_from_value(const Relation& relation,
                                                   std::uint64_t value) {
  std::int64_t unbiased = 0;
  // A difference past the int64 range names no target a packet could hold.
  if (__builtin_sub_overflow(static_cast<std::int64_t>(value), relation.bias,
                             &unbiased) ||
      unbiased < 0) {
    return std::nullopt;
  }
  switch (relation.kind) {
    case RelationKind::None:
      return std::nullopt;
    case RelationKind::SizeOf:
      return static_cast<std::size_t>(unbiased);
    case RelationKind::CountOf: {
      const std::uint32_t unit = relation.unit == 0 ? 1 : relation.unit;
      return static_cast<std::size_t>(unbiased) * unit;
    }
  }
  return std::nullopt;
}

class Parser {
 public:
  Parser(const DataModel& model, ByteSpan packet, const ParseOptions& options)
      : model_(model), packet_(packet), options_(options) {}

  std::optional<InsTree> run() {
    std::size_t pos = 0;
    auto root = parse_node(model_.root(), packet_, pos);
    if (!root) return std::nullopt;
    if (options_.require_full_consumption && pos != packet_.size()) {
      return std::nullopt;
    }
    InsTree tree;
    tree.model = &model_;
    tree.root = std::move(*root);
    if (options_.verify_relations && !verify_relations(tree)) return std::nullopt;
    if (options_.verify_fixups && !verify_fixups(tree)) return std::nullopt;
    return tree;
  }

 private:
  // Parses `chunk` from data[pos..); on success advances pos.
  std::optional<InsNode> parse_node(const Chunk& chunk, ByteSpan data,
                                    std::size_t& pos) {
    switch (chunk.kind()) {
      case ChunkKind::Number: return parse_number(chunk, data, pos);
      case ChunkKind::String: return parse_string(chunk, data, pos);
      case ChunkKind::Blob: return parse_blob(chunk, data, pos);
      case ChunkKind::Block: return parse_block(chunk, data, pos);
      case ChunkKind::Choice: return parse_choice(chunk, data, pos);
    }
    return std::nullopt;
  }

  std::optional<InsNode> parse_number(const Chunk& chunk, ByteSpan data,
                                      std::size_t& pos) {
    const NumberSpec& spec = chunk.number_spec();
    if (pos + spec.width > data.size()) return std::nullopt;
    const ByteSpan raw = data.subspan(pos, spec.width);
    const std::uint64_t value = decode_uint(raw, spec.endian);
    if (spec.is_token && value != spec.default_value) return std::nullopt;
    pos += spec.width;
    if (chunk.relation().active()) {
      if (auto bytes = target_bytes_from_value(chunk.relation(), value)) {
        env_[chunk.relation().target] = *bytes;
      } else {
        return std::nullopt;  // relation value underflows its bias
      }
    }
    InsNode node;
    node.rule = &chunk;
    node.content.assign(raw.begin(), raw.end());
    return node;
  }

  std::optional<InsNode> parse_string(const Chunk& chunk, ByteSpan data,
                                      std::size_t& pos) {
    const StringSpec& spec = chunk.string_spec();
    std::size_t length = 0;
    if (auto env_length = lookup_env(chunk.name())) {
      length = *env_length;
    } else if (spec.length) {
      length = *spec.length;
    } else if (spec.null_terminated) {
      // Scan for the terminator within the current scope.
      std::size_t scan = pos;
      while (scan < data.size() && data[scan] != 0) ++scan;
      if (scan >= data.size()) return std::nullopt;
      length = scan - pos;
    } else {
      length = data.size() - pos;  // rest of scope
    }
    const std::size_t terminator = spec.null_terminated ? 1 : 0;
    if (pos + length + terminator > data.size()) return std::nullopt;
    InsNode node;
    node.rule = &chunk;
    node.content.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                        data.begin() + static_cast<std::ptrdiff_t>(pos + length + terminator));
    if (spec.null_terminated && node.content.back() != 0) return std::nullopt;
    pos += length + terminator;
    return node;
  }

  std::optional<InsNode> parse_blob(const Chunk& chunk, ByteSpan data,
                                    std::size_t& pos) {
    const BlobSpec& spec = chunk.blob_spec();
    std::size_t length = 0;
    if (auto env_length = lookup_env(chunk.name())) {
      length = *env_length;
    } else if (spec.length) {
      length = *spec.length;
    } else {
      length = data.size() - pos;  // rest of scope
    }
    if (pos + length > data.size()) return std::nullopt;
    InsNode node;
    node.rule = &chunk;
    node.content.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                        data.begin() + static_cast<std::ptrdiff_t>(pos + length));
    pos += length;
    return node;
  }

  std::optional<InsNode> parse_block(const Chunk& chunk, ByteSpan data,
                                     std::size_t& pos) {
    // A block whose length is dictated by a relation parses its children
    // inside the carved sub-span and must consume it exactly.
    ByteSpan scope = data;
    std::size_t scope_pos = pos;
    bool carved = false;
    if (auto env_length = lookup_env(chunk.name())) {
      if (pos + *env_length > data.size()) return std::nullopt;
      scope = data.subspan(0, pos + *env_length);
      carved = true;
    }
    InsNode node;
    node.rule = &chunk;
    for (const Chunk& child : chunk.children()) {
      auto parsed = parse_node(child, scope, scope_pos);
      if (!parsed) return std::nullopt;
      node.children.push_back(std::move(*parsed));
    }
    if (carved && scope_pos != scope.size()) return std::nullopt;
    pos = scope_pos;
    return node;
  }

  std::optional<InsNode> parse_choice(const Chunk& chunk, ByteSpan data,
                                      std::size_t& pos) {
    for (std::size_t i = 0; i < chunk.children().size(); ++i) {
      // Alternatives may write to the length environment before failing, so
      // each attempt works on a scratch copy.
      LengthEnv saved = env_;
      std::size_t attempt_pos = pos;
      auto parsed = parse_node(chunk.children()[i], data, attempt_pos);
      if (parsed) {
        InsNode node;
        node.rule = &chunk;
        node.choice_index = i;
        node.children.push_back(std::move(*parsed));
        pos = attempt_pos;
        return node;
      }
      env_ = std::move(saved);
    }
    return std::nullopt;
  }

  std::optional<std::size_t> lookup_env(const std::string& name) const {
    auto it = env_.find(name);
    if (it == env_.end()) return std::nullopt;
    return it->second;
  }

  bool verify_relations(const InsTree& tree) const {
    bool ok = true;
    visit(tree.root, [&](const InsNode& node) {
      if (!ok || node.rule == nullptr || !node.rule->relation().active()) return;
      const InsNode* target = tree.root.find(node.rule->relation().target);
      if (target == nullptr) {
        ok = false;
        return;
      }
      const std::uint64_t expected =
          relation_value(node.rule->relation(), target->serialized_size());
      const std::uint64_t actual =
          decode_uint(node.content, node.rule->number_spec().endian);
      if (expected != actual) ok = false;
    });
    return ok;
  }

  bool verify_fixups(const InsTree& tree) const {
    bool ok = true;
    visit(tree.root, [&](const InsNode& node) {
      if (!ok || node.rule == nullptr || !node.rule->fixup().active()) return;
      const InsNode* ref = tree.root.find(node.rule->fixup().ref);
      if (ref == nullptr) {
        ok = false;
        return;
      }
      const NumberSpec& spec = node.rule->number_spec();
      const std::uint64_t mask =
          spec.width >= 8 ? ~0ULL : ((1ULL << (spec.width * 8)) - 1);
      const std::uint64_t expected =
          fixup_value(node.rule->fixup().kind, ref->serialize()) & mask;
      const std::uint64_t actual = decode_uint(node.content, spec.endian);
      if (expected != actual) ok = false;
    });
    return ok;
  }

  static void visit(const InsNode& node,
                    const std::function<void(const InsNode&)>& fn) {
    fn(node);
    for (const InsNode& child : node.children) visit(child, fn);
  }

  const DataModel& model_;
  ByteSpan packet_;
  ParseOptions options_;
  LengthEnv env_;
};

/// Fills `by_ordinal` with the nodes of the subtree at `node`.
void index_nodes(InsNode& node, std::vector<InsNode*>& by_ordinal) {
  if (node.rule != nullptr && node.rule->ordinal() < by_ordinal.size()) {
    by_ordinal[node.rule->ordinal()] = &node;
  }
  for (InsNode& child : node.children) index_nodes(child, by_ordinal);
}

/// memcpy for the few bytes a leaf usually holds: fixed-size moves of
/// overlapping halves rather than a library call per leaf.
void copy_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  if (n >= 16) {
    std::memcpy(dst, src, n);
  } else if (n >= 8) {
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::memcpy(&head, src, 8);
    std::memcpy(&tail, src + n - 8, 8);
    std::memcpy(dst, &head, 8);
    std::memcpy(dst + n - 8, &tail, 8);
  } else if (n >= 4) {
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::memcpy(&head, src, 4);
    std::memcpy(&tail, src + n - 4, 4);
    std::memcpy(dst, &head, 4);
    std::memcpy(dst + n - 4, &tail, 4);
  } else if (n > 0) {
    dst[0] = src[0];
    dst[n / 2] = src[n / 2];
    dst[n - 1] = src[n - 1];
  }
}

/// Copies the contents of leaves [first, end) into `out`, which must hold
/// exactly their total size.
void copy_leaves(const std::vector<InsNode*>& leaves, std::size_t first,
                 std::size_t end, Bytes& out) {
  std::uint8_t* dst = out.data();
  for (std::size_t i = first; i < end; ++i) {
    const Bytes& content = leaves[i]->content;
    copy_bytes(dst, content.data(), content.size());
    dst += content.size();
  }
}

/// Encodes `value` into a Number node in place; true when its bytes changed.
bool store_number(InsNode& node, std::uint64_t value) {
  const NumberSpec& spec = node.rule->number_spec();
  const std::uint64_t mask =
      spec.width >= 8 ? ~0ULL : ((1ULL << (spec.width * 8)) - 1);
  if (node.content.size() == spec.width &&
      decode_uint(node.content, spec.endian) == (value & mask)) {
    return false;
  }
  encode_uint_into(value, spec.width, spec.endian, node.content);
  return true;
}

void dump_node(const InsNode& node, std::size_t depth, std::string& out) {
  out.append(depth * 2, ' ');
  if (node.rule != nullptr) {
    out += node.rule->name();
    out += " <";
    out += to_string(node.rule->kind());
    out += ">";
  } else {
    out += "?";
  }
  const Bytes bytes = node.serialize();
  out += " [" + std::to_string(bytes.size()) + "B]";
  if (node.rule != nullptr && node.rule->is_leaf()) {
    const std::size_t preview = std::min<std::size_t>(bytes.size(), 16);
    out += " ";
    out += to_hex(ByteSpan(bytes.data(), preview));
    if (bytes.size() > preview) out += "..";
  }
  out += "\n";
  for (const InsNode& child : node.children) dump_node(child, depth + 1, out);
}

}  // namespace

Bytes InsNode::serialize() const {
  Bytes out;
  out.reserve(serialized_size());
  serialize_append(out);
  return out;
}

void InsNode::serialize_append(Bytes& out) const {
  if (rule != nullptr && rule->is_leaf()) {
    append(out, content);
    return;
  }
  for (const InsNode& child : children) child.serialize_append(out);
}

std::size_t InsNode::serialized_size() const {
  if (rule != nullptr && rule->is_leaf()) return content.size();
  std::size_t total = 0;
  for (const InsNode& child : children) total += child.serialized_size();
  return total;
}

InsNode* InsNode::find(const std::string& name) {
  if (rule != nullptr && rule->name() == name) return this;
  for (InsNode& child : children) {
    if (InsNode* found = child.find(name)) return found;
  }
  return nullptr;
}

const InsNode* InsNode::find(const std::string& name) const {
  if (rule != nullptr && rule->name() == name) return this;
  for (const InsNode& child : children) {
    if (const InsNode* found = child.find(name)) return found;
  }
  return nullptr;
}

std::size_t InsNode::node_count() const {
  std::size_t count = 1;
  for (const InsNode& child : children) count += child.node_count();
  return count;
}

std::optional<InsTree> parse_packet(const DataModel& model, ByteSpan packet,
                                    const ParseOptions& options) {
  Parser parser(model, packet, options);
  return parser.run();
}

std::size_t apply_constraints(InsTree& tree) {
  if (tree.model == nullptr) return 0;
  const DataModel& model = *tree.model;
  std::vector<InsNode*> nodes(model.node_count(), nullptr);
  index_nodes(tree.root, nodes);
  std::size_t rewritten = 0;

  // Pass 1: relations, in pre-order, each measured as the tree stands
  // (a relation field stored at another width changes later measures).
  for (const ConstraintSite& site : model.relation_sites()) {
    InsNode* field = nodes[site.field];
    const InsNode* target = nodes[site.target];
    if (field == nullptr || target == nullptr) continue;
    rewritten += store_number(
        *field, relation_value(field->rule->relation(),
                               target->serialized_size()));
  }

  // Pass 2: fixups, innermost reference first so that an outer checksum
  // covers the final bytes of any inner one.
  for (const ConstraintSite& site : model.fixup_sites()) {
    InsNode* field = nodes[site.field];
    const InsNode* ref = nodes[site.target];
    if (field == nullptr || ref == nullptr) continue;
    rewritten += store_number(
        *field, fixup_value(field->rule->fixup().kind, ref->serialize()));
  }
  return rewritten;
}

void write_default(const Chunk& leaf, Bytes& out) {
  out.clear();
  switch (leaf.kind()) {
    case ChunkKind::Number: {
      const NumberSpec& spec = leaf.number_spec();
      encode_uint_into(spec.default_value, spec.width, spec.endian, out);
      break;
    }
    case ChunkKind::String: {
      const StringSpec& spec = leaf.string_spec();
      out.assign(spec.default_value.begin(), spec.default_value.end());
      if (spec.length) out.resize(*spec.length, ' ');
      if (spec.null_terminated) out.push_back(0);
      break;
    }
    case ChunkKind::Blob: {
      const BlobSpec& spec = leaf.blob_spec();
      out.assign(spec.default_value.begin(), spec.default_value.end());
      if (spec.length) out.resize(*spec.length, 0);
      break;
    }
    case ChunkKind::Block:
    case ChunkKind::Choice:
      break;
  }
}

void TreeBuilder::select(InsNode& node, const Chunk& chunk, std::size_t pick) {
  if (node.children.empty()) {
    node.children.emplace_back();
  } else if (node.choice_index == pick) {
    return;
  } else {
    std::swap(node.children.front(),
              parked_[chunk.children()[*node.choice_index].ordinal()]);
  }
  std::swap(node.children.front(), parked_[chunk.children()[pick].ordinal()]);
  node.choice_index = pick;
}

void TreeBuilder::sum_leaf_sizes() {
  offsets_.resize(leaves_.size() + 1);
  std::size_t total = 0;
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    offsets_[i] = total;
    total += leaves_[i]->content.size();
  }
  offsets_[leaves_.size()] = total;
}

void TreeBuilder::record_defaults() {
  defaults_model_ = tree_.model;
  defaults_.clear();
  default_offsets_.assign(1, 0);
  for (const InsNode* leaf : leaves_) {
    append(defaults_, leaf->content);
    default_offsets_.push_back(defaults_.size());
  }
}

void TreeBuilder::restore_defaults() {
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    Bytes& content = leaves_[i]->content;
    content.resize(default_offsets_[i + 1] - default_offsets_[i]);
    copy_bytes(content.data(), defaults_.data() + default_offsets_[i],
               content.size());
  }
}

std::size_t TreeBuilder::apply_constraints() {
  if (tree_.model == nullptr) return 0;
  const DataModel& model = *tree_.model;
  std::size_t rewritten = 0;

  // Pass 1: relations. A target's size is the difference of two prefix
  // sums; the sums are redone only after a field's width changed.
  bool summed = false;
  for (const ConstraintSite& site : model.relation_sites()) {
    const Built* field = built(site.field);
    const Built* target = built(site.target);
    if (field == nullptr || target == nullptr) continue;
    if (!summed) {
      sum_leaf_sizes();
      summed = true;
    }
    InsNode& node = *field->node;
    const std::size_t width = node.content.size();
    rewritten += store_number(
        node, relation_value(node.rule->relation(),
                             offsets_[target->end_leaf] -
                                 offsets_[target->first_leaf]));
    if (node.content.size() != width) summed = false;
  }

  // Pass 2: fixups, innermost reference first; a checksum's input is its
  // ref's run of leaves.
  for (const ConstraintSite& site : model.fixup_sites()) {
    const Built* field = built(site.field);
    const Built* ref = built(site.target);
    if (field == nullptr || ref == nullptr) continue;
    std::size_t size = 0;
    for (std::uint32_t i = ref->first_leaf; i < ref->end_leaf; ++i) {
      size += leaves_[i]->content.size();
    }
    ref_bytes_.resize(size);
    copy_leaves(leaves_, ref->first_leaf, ref->end_leaf, ref_bytes_);
    InsNode& node = *field->node;
    rewritten +=
        store_number(node, fixup_value(node.rule->fixup().kind, ref_bytes_));
  }
  return rewritten;
}

void TreeBuilder::serialize_into(Bytes& out) const {
  std::size_t size = 0;
  for (const InsNode* leaf : leaves_) size += leaf->content.size();
  if (size > out.capacity()) {
    out.clear();
    out.reserve(std::max(size, 2 * out.capacity()));
  }
  out.resize(size);
  copy_leaves(leaves_, 0, leaves_.size(), out);
}

InsTree default_instance(const DataModel& model) {
  TreeBuilder builder;
  builder.rebuild(model, [](const Chunk&) { return std::size_t{0}; },
                  write_default);
  builder.apply_constraints();
  return std::move(builder.tree());
}

std::string dump_tree(const InsTree& tree) {
  std::string out;
  if (tree.model != nullptr) {
    out += "model " + tree.model->name() + "\n";
  }
  dump_node(tree.root, 0, out);
  return out;
}

}  // namespace icsfuzz::model
