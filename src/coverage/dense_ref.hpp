// Dense full-map reference implementation of the trace analyses.
//
// These are the pre-sparse whole-map passes (memset + classify + has-new-bits
// + accumulate + hash + count, each a full 64 KiB sweep), retained verbatim
// as an oracle independent of the sparse path. A CoverageMap pinned to
// simd::Kernel::kDense runs its begin/finalize through them, which is how
// they reach their consumers:
//
//   * the equivalence suite (tests/test_coverage_sparse.cpp) asserts the
//     sparse dirty-word path produces bit-identical hashes, edge counts,
//     new-bit decisions and accumulated maps;
//   * bench_hotpath.cpp measures speedup_vs_dense, the hardware-independent
//     headline number of the hot-path overhaul;
//   * campaigns run with ExecutorConfig::coverage_kernel = kDense, on any
//     backend, to prove trajectory preservation.
//
// All word access goes through memcpy so the functions are alias-safe on any
// uint8_t buffer (the sparse CoverageMap stores its maps as real uint64
// arrays; callers here often hold plain std::vector<uint8_t>).
#pragma once

#include <cstdint>
#include <cstring>

#include "coverage/instrument.hpp"

namespace icsfuzz::cov::dense {

/// Loads the w-th 64-bit word of a kMapSize byte map.
inline std::uint64_t load_word(const std::uint8_t* map, std::size_t w) {
  std::uint64_t word;
  std::memcpy(&word, map + w * sizeof(word), sizeof(word));
  return word;
}

/// Per-cell contribution to the order-insensitive trace hash: mixes the cell
/// index and its classified bucket through a splitmix64-style finalizer.
/// Shared with the sparse fused pass so both compute the identical hash.
inline std::uint64_t mix_cell(std::size_t index, std::uint8_t value) {
  std::uint64_t v = (static_cast<std::uint64_t>(index) << 8) | value;
  v *= 0x9E3779B97F4A7C15ULL;
  v ^= v >> 29;
  v *= 0xBF58476D1CE4E5B9ULL;
  v ^= v >> 32;
  return v;
}

/// Finalizes the commutative (sum, xor) accumulators into the trace hash.
inline std::uint64_t finish_hash(std::uint64_t sum, std::uint64_t mix) {
  return sum ^ (mix * 0x94D049BB133111EBULL);
}

/// Classifies every raw count of `trace` into its AFL bucket, in place.
void classify_in_place(std::uint8_t* trace);

/// True when the classified `trace` contains a bit absent from `virgin`.
[[nodiscard]] bool has_new_bits(const std::uint8_t* trace,
                                const std::uint8_t* virgin);

/// ORs the classified `trace` into `virgin`; returns true if anything new.
bool accumulate(const std::uint8_t* trace, std::uint8_t* virgin);

/// Number of nonzero cells in `map`.
[[nodiscard]] std::size_t edge_count(const std::uint8_t* map);

/// Order-insensitive hash of the classified (edge, bucket) set of `trace`.
[[nodiscard]] std::uint64_t trace_hash(const std::uint8_t* trace);

}  // namespace icsfuzz::cov::dense
