#include "fuzzer/instantiator.hpp"

namespace icsfuzz::fuzz {

model::TreeBuilder& ModelInstantiator::build_defaults(
    const model::DataModel& model, Rng& rng) const {
  model::TreeBuilder& builder = tree_for(model);
  builder.rebuild_defaults(model, RandomChoice{rng});
  return builder;
}

model::TreeBuilder& ModelInstantiator::rebuild(const model::DataModel& model,
                                               Rng& rng) const {
  model::TreeBuilder& builder = tree_for(model);
  if (rng.chance(config_.sequential_mode_pct, 100)) {
    // Peach's sequential profile: every field at its default, then 1-2
    // randomly chosen free fields take aggressive values.
    builder.rebuild_defaults(model, RandomChoice{rng});
    const std::vector<model::InsNode*>& leaves = builder.free_leaves();
    if (!leaves.empty()) {
      const std::size_t perturbations =
          rng.chance(1, 3) && leaves.size() > 1 ? 2 : 1;
      for (std::size_t i = 0; i < perturbations; ++i) {
        model::InsNode* leaf = rng.pick(leaves);
        mutators_.generate_leaf_into(*leaf->rule, rng, leaf->content);
      }
    }
  } else {
    // Independent regeneration of every field.
    builder.rebuild(model, RandomChoice{rng},
                    [&](const model::Chunk& leaf, Bytes& content) {
                      mutators_.generate_leaf_into(leaf, rng, content);
                    });
  }
  return builder;
}

}  // namespace icsfuzz::fuzz
