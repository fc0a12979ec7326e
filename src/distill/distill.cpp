#include "distill/distill.hpp"

#include <algorithm>
#include <bit>
#include <unordered_set>

namespace icsfuzz::distill {
namespace {

/// Path elements share the edge-element id space via the top bit (edge
/// elements are < 2^19, so no collision is possible).
constexpr std::uint64_t kPathElement = 1ULL << 63;

std::vector<std::uint64_t> seed_elements(const SeedTrace& trace,
                                         bool preserve_paths) {
  std::vector<std::uint64_t> elements;
  elements.reserve(trace.elements.size() + 1);
  for (const std::uint32_t element : trace.elements) {
    elements.push_back(element);
  }
  if (preserve_paths) elements.push_back(kPathElement | trace.trace_hash);
  return elements;
}

}  // namespace

CminResult cmin_from_traces(const std::vector<SeedTrace>& traces,
                            const std::vector<Bytes>& seeds,
                            const CminConfig& config) {
  CminResult result;
  result.stats.seeds_before = seeds.size();

  // Candidate element lists plus the universe they must cover.
  std::vector<std::vector<std::uint64_t>> elements(traces.size());
  std::unordered_set<std::uint64_t> universe;
  std::unordered_set<std::uint64_t> paths;
  std::size_t edge_elements = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    elements[i] = seed_elements(traces[i], config.preserve_paths);
    paths.insert(traces[i].trace_hash);
    for (const std::uint64_t element : elements[i]) {
      if (universe.insert(element).second && (element & kPathElement) == 0) {
        ++edge_elements;
      }
    }
  }
  result.stats.edge_elements = edge_elements;
  result.stats.paths = paths.size();
  result.stats.replay_executions = traces.size();

  // Greedy set cover: repeatedly take the seed adding the most uncovered
  // elements; break ties toward fewer bytes, then input order, so the
  // result is deterministic and biased toward small reproducers. The
  // covered set only grows, so a candidate whose gain hits zero can never
  // win later — prune it (and the pick) each round instead of rescanning
  // the whole corpus every time.
  std::unordered_set<std::uint64_t> covered;
  covered.reserve(universe.size());
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (!elements[i].empty()) candidates.push_back(i);
  }
  while (covered.size() < universe.size() && !candidates.empty()) {
    std::size_t best = traces.size();
    std::size_t best_gain = 0;
    std::vector<std::size_t> alive;
    alive.reserve(candidates.size());
    for (const std::size_t i : candidates) {
      std::size_t gain = 0;
      for (const std::uint64_t element : elements[i]) {
        gain += !covered.contains(element);
      }
      if (gain == 0) continue;  // fully covered — out for good
      alive.push_back(i);
      const bool wins =
          gain > best_gain ||
          (gain == best_gain &&
           (best == traces.size() || seeds[i].size() < seeds[best].size()));
      if (wins) {
        best = i;
        best_gain = gain;
      }
    }
    if (best == traces.size()) break;
    result.kept.push_back(best);
    for (const std::uint64_t element : elements[best]) covered.insert(element);
    alive.erase(std::find(alive.begin(), alive.end(), best));
    candidates = std::move(alive);
  }

  std::sort(result.kept.begin(), result.kept.end());
  result.seeds.reserve(result.kept.size());
  for (const std::size_t index : result.kept) {
    result.seeds.push_back(seeds[index]);
  }
  result.stats.seeds_after = result.kept.size();
  return result;
}

CminResult cmin(const fuzz::TargetFactory& make_target,
                const std::vector<Bytes>& seeds, const CminConfig& config) {
  const std::vector<SeedTrace> traces =
      collect_traces_sharded(make_target, seeds, config.workers,
                             config.executor);
  return cmin_from_traces(traces, seeds, config);
}

CminResult cmin(ProtocolTarget& target, const std::vector<Bytes>& seeds,
                const CminConfig& config) {
  return cmin_from_traces(collect_traces(target, seeds, config.executor),
                          seeds, config);
}

TminResult tmin(ProtocolTarget& target, const Bytes& seed,
                const fuzz::ExecutorConfig& executor_config) {
  TminResult result;
  result.seed = seed;
  result.bytes_before = seed.size();
  if (seed.empty()) return result;

  fuzz::Executor executor(executor_config);
  const std::uint64_t baseline = executor.run(target, seed).trace_hash;
  ++result.executions;

  // afl-tmin style block removal: try deleting aligned blocks of halving
  // sizes; a removal survives only when the trace hash is unchanged.
  std::size_t block = std::bit_floor(std::max<std::size_t>(
      result.seed.size() / 2, 1));
  for (; block >= 1; block /= 2) {
    std::size_t pos = 0;
    while (pos < result.seed.size()) {
      if (result.executions >= kTminMaxExecutions) return result;
      const std::size_t len = std::min(block, result.seed.size() - pos);
      if (len == result.seed.size()) {  // never try the empty seed
        pos += block;
        continue;
      }
      Bytes candidate;
      candidate.reserve(result.seed.size() - len);
      candidate.insert(candidate.end(), result.seed.begin(),
                       result.seed.begin() + static_cast<std::ptrdiff_t>(pos));
      candidate.insert(
          candidate.end(),
          result.seed.begin() + static_cast<std::ptrdiff_t>(pos + len),
          result.seed.end());
      ++result.executions;
      if (executor.run(target, candidate).trace_hash == baseline) {
        result.seed = std::move(candidate);  // keep position, retry here
      } else {
        pos += block;
      }
    }
    if (block == 1) break;
  }
  return result;
}

}  // namespace icsfuzz::distill
