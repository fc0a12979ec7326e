// Mutators — Peach's per-data-type value factories (paper §II): "Mutator
// generates data in these ways: random generation, mutation on default
// value and mutation on existing chunks".
//
// `MutatorSuite::generate_leaf` produces the content of one leaf chunk by
// picking one of those modes; `mutate_bytes` implements the byte-level
// mutation operators used for existing-chunk mutation.
#pragma once

#include "model/chunk.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz::mutation {

/// Knobs for the value factories. The defaults mirror Peach's bias towards
/// structurally valid frames carrying value-wise aggressive data: most of
/// the probability mass is random/boundary, with occasional sane values so
/// deep semantic paths stay *reachable* but rare — the regime in which the
/// paper observes Peach bogging down.
struct MutatorConfig {
  /// Probability (percent) of emitting the chunk's default value verbatim.
  unsigned default_value_pct = 10;
  /// Probability (percent) of picking from the chunk's legal-value list
  /// (when non-empty).
  unsigned legal_value_pct = 15;
  /// Probability (percent) of a boundary value (0, 1, max, max-1, ...).
  unsigned boundary_pct = 15;
  /// Remaining probability mass is fully random generation.

  /// Probability (percent) that an existing-content mutation is applied on
  /// top of the chosen base value.
  unsigned post_mutate_pct = 25;

  /// Probability (percent) that one model instantiation uses Peach's
  /// *sequential* field-mutation profile — every field holds its default
  /// while one or two randomly chosen fields receive aggressive values —
  /// instead of regenerating every field independently. Sequential
  /// mutation is how Peach walks a data model in practice; it covers the
  /// "defaults plus one deviation" neighbourhood quickly and then
  /// plateaus, which is precisely the §III behaviour Peach* attacks with
  /// multi-field donor recombination.
  unsigned sequential_mode_pct = 65;
};

class MutatorSuite {
 public:
  explicit MutatorSuite(MutatorConfig config = {}) : config_(config) {}

  /// Generates wire content for a leaf chunk (Number/String/Blob).
  Bytes generate_leaf(const model::Chunk& chunk, Rng& rng) const;

  /// Buffer-reusing generate_leaf: writes the content into `out` (cleared
  /// first, capacity retained), drawing the identical RNG sequence. The
  /// generators build leaves straight into their reused trees with it.
  void generate_leaf_into(const model::Chunk& chunk, Rng& rng,
                          Bytes& out) const;

  /// Generates a numeric value honouring the spec's legal values/bounds per
  /// the configured mode mix (exposed for tests and the baseline engine).
  std::uint64_t generate_number_value(const model::NumberSpec& spec,
                                      Rng& rng) const;

  /// Byte-level mutation operators applied to existing chunk content:
  /// bit flip, byte flip, arithmetic on a byte, block duplicate, block
  /// remove, byte insert. Empty input may grow.
  Bytes mutate_bytes(ByteSpan input, Rng& rng) const;

  /// Buffer-reusing variant: writes the mutated bytes into `out` (cleared
  /// first, capacity retained), drawing the identical RNG sequence as
  /// mutate_bytes. `input` must not alias `out`; mutate_in_place stacks
  /// mutations on one buffer.
  void mutate_bytes_into(ByteSpan input, Bytes& out, Rng& rng) const;

  /// The one implementation behind both: applies one mutation operator to
  /// `out` in place (identical RNG draws and result). Allocation-free once
  /// `out` has capacity for the grown bytes.
  void mutate_in_place(Bytes& out, Rng& rng) const;

  [[nodiscard]] const MutatorConfig& config() const { return config_; }

 private:
  void generate_string_into(const model::StringSpec& spec, Rng& rng,
                            Bytes& out) const;
  void generate_blob_into(const model::BlobSpec& spec, Rng& rng,
                          Bytes& out) const;

  MutatorConfig config_;
};

}  // namespace icsfuzz::mutation
