// ModelInstantiator — Peach's inherent generation strategy (Algorithm 1 of
// the paper): walk the data model tree, generate every leaf through the
// per-type Mutators, pick Choice alternatives at random, then re-establish
// relations and fixups. Used verbatim by the baseline engine and as the
// no-donor fallback of the semantic-aware strategy.
//
// Generation is allocation-free once warm: each model gets a TreeBuilder
// that rebuilds its tree in place, leaves are written straight into the
// reused nodes, and File Fixup and serialization run over the leaf order
// the builder recorded. The default rebuilds behind Peach's sequential
// profile and the semantic generator's donor-recombination profile
// (build_defaults) restore the model's recorded default bytes instead of
// walking it, unless the model has a Choice. The instantiator therefore
// carries mutable per-model scratch and is not thread-safe; each Fuzzer
// (and so each parallel worker) owns its own.
#pragma once

#include <unordered_map>

#include "model/data_model.hpp"
#include "model/instantiation.hpp"
#include "mutation/mutator.hpp"
#include "util/rng.hpp"

namespace icsfuzz::fuzz {

class ModelInstantiator {
 public:
  explicit ModelInstantiator(mutation::MutatorConfig config = {})
      : config_(config), mutators_(config) {}

  /// Rebuilds `model`'s reused tree as one generated instance, constraints
  /// not applied. Per MutatorConfig::sequential_mode_pct, either Peach's
  /// sequential profile (defaults + 1-2 aggressively mutated fields) or
  /// independent regeneration of every field. Returns the model's builder,
  /// valid until the next generation from `model`.
  model::TreeBuilder& rebuild(const model::DataModel& model, Rng& rng) const;

  /// rebuild() plus File Fixup: one generated packet in the builder.
  model::TreeBuilder& build(const model::DataModel& model, Rng& rng) const {
    model::TreeBuilder& builder = rebuild(model, rng);
    builder.apply_constraints();
    return builder;
  }

  /// Rebuilds `model`'s reused tree with every field at its default and
  /// random Choice alternatives, constraints not applied: the base of both
  /// sequential profiles (TreeBuilder::rebuild_defaults, so a Choice-free
  /// model is restored from its recorded defaults). Returns the model's
  /// builder.
  model::TreeBuilder& build_defaults(const model::DataModel& model,
                                     Rng& rng) const;

  /// Serializes build() into `out` (cleared first, capacity retained).
  void generate_into(const model::DataModel& model, Rng& rng,
                     Bytes& out) const {
    build(model, rng).serialize_into(out);
  }

  /// Value-returning forms of build() and generate_into() (tests, benches).
  model::InsTree instantiate(const model::DataModel& model, Rng& rng) const {
    return build(model, rng).tree();
  }
  Bytes generate(const model::DataModel& model, Rng& rng) const {
    Bytes out;
    generate_into(model, rng, out);
    return out;
  }

  [[nodiscard]] const mutation::MutatorSuite& mutators() const {
    return mutators_;
  }

  /// The model's reused tree builder (shared with the semantic generator).
  model::TreeBuilder& tree_for(const model::DataModel& model) const {
    return trees_[model.instance_id()];
  }

  /// CHOOSE for a Choice chunk: a uniformly random alternative.
  struct RandomChoice {
    Rng& rng;
    std::size_t operator()(const model::Chunk& choice) const {
      return rng.index(choice.children().size());
    }
  };

 private:
  mutation::MutatorConfig config_;
  mutation::MutatorSuite mutators_;
  /// Per-model scratch, keyed by DataModel::instance_id(): one entry per
  /// model this instantiator has generated from.
  mutable std::unordered_map<std::uint64_t, model::TreeBuilder> trees_;
};

}  // namespace icsfuzz::fuzz
