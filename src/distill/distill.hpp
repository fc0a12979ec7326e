// Corpus distillation — the cmin/tmin pair of released coverage-guided
// fuzzers, applied to the paper's valuable-seed corpus.
//
//   * cmin  — greedy set-cover corpus minimization: replay every seed,
//     record its classified (edge, bucket) elements and trace hash
//     (trace.hpp), then keep the smallest greedy subset whose union
//     preserves the whole corpus's coverage. With preserve_paths (the
//     default) every distinct trace hash is also a covered element, so the
//     paper's headline metric — paths covered — survives distillation
//     bit-for-bit, not just the edge map.
//   * tmin  — single-seed trimming: remove byte blocks (halving window
//     sizes, afl-tmin style) while the whole-trace hash stays invariant,
//     so the shrunken seed provably executes the identical path.
//
// Both are deterministic: no RNG, ties broken by seed size then input
// order, so a distilled corpus is a pure function of its input corpus.
#pragma once

#include "distill/trace.hpp"

namespace icsfuzz::distill {

struct CminConfig {
  /// Worker threads for the replay (trace-collection) phase of the
  /// factory-based entry point. 1 = sequential.
  std::size_t workers = 1;
  /// Cover distinct trace hashes as well as edge elements, preserving the
  /// path count exactly (a few extra representatives per unique path).
  bool preserve_paths = true;
  fuzz::ExecutorConfig executor;
};

struct CminStats {
  std::size_t seeds_before = 0;
  std::size_t seeds_after = 0;
  /// Distinct (edge, bucket) elements in the corpus union.
  std::size_t edge_elements = 0;
  /// Distinct trace hashes in the corpus union.
  std::size_t paths = 0;
  /// Replays spent collecting traces.
  std::uint64_t replay_executions = 0;

  /// Fraction of seeds removed (0 when the corpus was already minimal).
  [[nodiscard]] double reduction_ratio() const {
    return seeds_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(seeds_after) /
                           static_cast<double>(seeds_before);
  }
};

struct CminResult {
  /// Kept positions into the input seed list, ascending.
  std::vector<std::size_t> kept;
  /// The kept seeds, in `kept` order.
  std::vector<Bytes> seeds;
  CminStats stats;
};

/// Minimizes over pre-collected traces (no replays; used by the fuzzer's
/// auto-distill hook, which already owns a target).
CminResult cmin_from_traces(const std::vector<SeedTrace>& traces,
                            const std::vector<Bytes>& seeds,
                            const CminConfig& config = {});

/// Replays (sharded across config.workers) and minimizes in one call.
CminResult cmin(const fuzz::TargetFactory& make_target,
                const std::vector<Bytes>& seeds,
                const CminConfig& config = {});

/// Single-target convenience: sequential replays against `target`.
CminResult cmin(ProtocolTarget& target, const std::vector<Bytes>& seeds,
                const CminConfig& config = {});

/// tmin's replay budget; trimming stops when it is exhausted.
inline constexpr std::uint64_t kTminMaxExecutions = 4096;

struct TminResult {
  /// The trimmed seed (== the input when nothing could be removed).
  Bytes seed;
  std::size_t bytes_before = 0;
  /// Replays spent (including the baseline run).
  std::uint64_t executions = 0;

  [[nodiscard]] bool shrunk() const { return seed.size() < bytes_before; }
  [[nodiscard]] double reduction_ratio() const {
    return bytes_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(seed.size()) /
                           static_cast<double>(bytes_before);
  }
};

/// Shrinks `seed` while its whole-trace hash stays invariant, replaying it
/// through an executor built from `executor`.
TminResult tmin(ProtocolTarget& target, const Bytes& seed,
                const fuzz::ExecutorConfig& executor = {});

}  // namespace icsfuzz::distill
