#include "fuzzer/instantiator.hpp"

namespace icsfuzz::fuzz {
namespace {

void collect_free_leaves(model::InsNode& node,
                         std::vector<model::InsNode*>& out) {
  if (node.rule != nullptr && node.rule->is_leaf()) {
    if (ModelInstantiator::is_free_leaf(*node.rule)) out.push_back(&node);
    return;
  }
  for (model::InsNode& child : node.children) collect_free_leaves(child, out);
}

}  // namespace

bool ModelInstantiator::is_free_leaf(const model::Chunk& chunk) {
  if (!chunk.is_leaf()) return false;
  const bool derived = chunk.kind() == model::ChunkKind::Number &&
                       (chunk.number_spec().is_token ||
                        chunk.relation().active() || chunk.fixup().active());
  return !derived;
}

void ModelInstantiator::free_leaves_into(model::InsNode& root,
                                         std::vector<model::InsNode*>& out) {
  out.clear();
  collect_free_leaves(root, out);
}

model::TreeBuilder& ModelInstantiator::build_defaults(
    const model::DataModel& model, Rng& rng) const {
  model::TreeBuilder& builder = tree_for(model);
  builder.rebuild(model, RandomChoice{rng}, model::write_default);
  return builder;
}

const model::InsTree& ModelInstantiator::build(const model::DataModel& model,
                                               Rng& rng) const {
  model::TreeBuilder* builder = nullptr;
  if (rng.chance(config_.sequential_mode_pct, 100)) {
    // Peach's sequential profile: every field at its default, then 1-2
    // randomly chosen free fields take aggressive values.
    builder = &build_defaults(model, rng);
    free_leaves_into(builder->tree().root, leaves_);
    if (!leaves_.empty()) {
      const std::size_t perturbations =
          rng.chance(1, 3) && leaves_.size() > 1 ? 2 : 1;
      for (std::size_t i = 0; i < perturbations; ++i) {
        model::InsNode* leaf = rng.pick(leaves_);
        mutators_.generate_leaf_into(*leaf->rule, rng, leaf->content);
      }
    }
  } else {
    // Independent regeneration of every field.
    builder = &tree_for(model);
    builder->rebuild(model, RandomChoice{rng},
                     [&](const model::Chunk& leaf, Bytes& content) {
                       mutators_.generate_leaf_into(leaf, rng, content);
                     });
  }
  builder->apply_constraints();
  return builder->tree();
}

}  // namespace icsfuzz::fuzz
