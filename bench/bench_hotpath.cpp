// Execution hot-path microbench: isolates the two costs the sparse
// overhaul removed from every execution and reports them as one JSON
// document for the bench-regression gate.
//
//   * Map ops A/B — identical synthetic traces (three edge densities)
//     replayed through the dense full-map reference
//     (begin_execution_dense + finalize_execution_dense: memset + ~5 whole
//     64 KiB sweeps per exec) and through the sparse dirty-word path
//     (begin_execution + fused finalize_execution: O(touched words)).
//     `speedup_vs_dense` is the hardware-independent headline — both arms
//     run the same workload on the same machine, so the ratio gates
//     regressions without caring how fast the CI runner is.
//
//   * SIMD kernel A/B — the same traces replayed through the sparse path
//     twice, once with the scalar reference kernel pinned and once with the
//     best kernel the build + CPU support (coverage/simd.hpp), timing only
//     the analysis windows (begin_execution + finalize_execution; the trace
//     emission between them is identical in both arms and excluded).
//     `speedup_vs_scalar_sparse` is the vectorization headline, and the two
//     arms' trace hashes/edge counts are folded into checksums that must
//     match exactly (`simd_matches_scalar`) — the kernels are required to be
//     bit-identical, not just fast.
//
//   * Packet-pipeline allocations — a counting global allocator measures
//     steady-state heap allocations per Executor::run_into on an
//     allocation-free stub target (must be 0), and per stacked
//     mutate_bytes_into ping-pong iteration (must be 0).
//
//   * Generation allocations — per packet of ModelInstantiator::
//     generate_into and SemanticGenerator::generate_into on all six pits
//     (the semantic arm with the puzzle corpus of a short Peach* campaign),
//     after warm-up (must be 0).
//
//   * Path-tracker probe A/B — the campaign-shaped record() stream (a few
//     percent fresh hashes, the rest repeats of the resident set) through
//     the open-addressing PathTracker and through a std::unordered_set
//     reference. `path_record_ops_per_sec` floors the absolute rate and
//     `path_probe_speedup_vs_set` is the hardware-independent gate on the
//     table rewrite.
//
// Budget knobs:
//   ICSFUZZ_BENCH_HOTPATH_EXECS   executions per density tier (default 3000)
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "counting_allocator.hpp"
#include "coverage/coverage_map.hpp"
#include "coverage/path_tracker.hpp"
#include "coverage/simd.hpp"
#include "fuzzer/executor.hpp"
#include "fuzzer/fuzzer.hpp"
#include "mutation/mutator.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "util/rng.hpp"

namespace {

using icsfuzz::bench_alloc::g_allocations;

using namespace icsfuzz;
using Clock = std::chrono::steady_clock;

/// One synthetic execution: (cell, raw count) pairs to emit via cov::hit.
using Trace = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Bumps exactly `cell` (solves the instrumentation update rule).
inline void emit_cell(std::uint32_t cell) {
  cov::hit(cell ^ cov::tls_prev_location);
}

std::vector<Trace> make_traces(std::size_t execs, std::size_t edges,
                               std::uint64_t seed) {
  // Cells come from a bounded pool so the virgin map saturates after the
  // first executions — the steady-state (no-new-coverage) regime a long
  // campaign spends nearly all its time in.
  Rng rng(seed);
  std::vector<std::uint32_t> pool(8 * edges);
  for (std::uint32_t& cell : pool) {
    cell = static_cast<std::uint32_t>(rng.below(cov::kMapSize));
  }
  std::vector<Trace> traces(execs);
  for (Trace& trace : traces) {
    trace.reserve(edges);
    for (std::size_t e = 0; e < edges; ++e) {
      trace.push_back({pool[rng.index(pool.size())],
                       static_cast<std::uint32_t>(1 + rng.below(4))});
    }
  }
  return traces;
}

template <typename Begin, typename Finalize>
double time_arm(cov::CoverageMap& map, const std::vector<Trace>& traces,
                Begin begin, Finalize finalize, std::uint64_t& sink) {
  const auto start = Clock::now();
  for (const Trace& trace : traces) {
    begin(map);
    for (const auto& [cell, count] : trace) {
      for (std::uint32_t i = 0; i < count; ++i) emit_cell(cell);
    }
    const cov::TraceSummary summary = finalize(map);
    sink ^= summary.trace_hash + summary.trace_edges;
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times only the map-analysis windows (begin + finalize) of a sparse-path
/// replay, excluding the emit loop both kernel arms share.
double time_analysis(cov::CoverageMap& map, const std::vector<Trace>& traces,
                     std::uint64_t& sink) {
  double total = 0.0;
  for (const Trace& trace : traces) {
    const auto begin_start = Clock::now();
    map.begin_execution();
    total += std::chrono::duration<double>(Clock::now() - begin_start).count();
    for (const auto& [cell, count] : trace) {
      for (std::uint32_t i = 0; i < count; ++i) emit_cell(cell);
    }
    const auto finalize_start = Clock::now();
    const cov::TraceSummary summary = map.finalize_execution();
    total +=
        std::chrono::duration<double>(Clock::now() - finalize_start).count();
    sink ^= summary.trace_hash + summary.trace_edges;
  }
  return total;
}

/// Steady-state heap allocations per generated packet, both generators, all
/// six pits: each generator first warms its per-model trees up on
/// kGenerateWarmup packets, then kGenerateMeasured packets are counted.
double generate_allocs_per_packet() {
  constexpr int kGenerateWarmup = 100000;
  constexpr int kGenerateMeasured = 5000;
  std::uint64_t allocs = 0;
  std::uint64_t packets = 0;
  for (const std::string& project : pits::all_project_names()) {
    const model::DataModelSet models = pits::pit_for_project(project);
    fuzz::FuzzerConfig config;
    config.telemetry = telem::Sink();
    const std::unique_ptr<ProtocolTarget> target =
        proto::target_factory(project)();
    fuzz::Fuzzer fuzzer(*target, models, config);
    fuzzer.run(3000);
    const fuzz::ModelInstantiator instantiator(config.mutators);
    const fuzz::SemanticGenerator semantic(config.semantic, config.mutators);
    for (const bool use_corpus : {false, true}) {
      Rng rng(0xA110C);
      Bytes out;
      const auto generate = [&] {
        const model::DataModel& model =
            models.models()[rng.index(models.size())];
        if (use_corpus) {
          semantic.generate_into(model, fuzzer.corpus(), rng, out);
        } else {
          instantiator.generate_into(model, rng, out);
        }
      };
      for (int i = 0; i < kGenerateWarmup; ++i) generate();
      const std::uint64_t before =
          g_allocations.load(std::memory_order_relaxed);
      for (int i = 0; i < kGenerateMeasured; ++i) generate();
      allocs += g_allocations.load(std::memory_order_relaxed) - before;
      packets += kGenerateMeasured;
    }
  }
  return static_cast<double>(allocs) / static_cast<double>(packets);
}

/// Allocation-free stub target for the executor-pipeline measurement.
class StubTarget final : public ProtocolTarget {
 public:
  [[nodiscard]] std::string_view name() const override { return "stub"; }
  void reset() override {}
  Bytes process(ByteSpan packet) override {
    Bytes response;
    process_into(packet, response);
    return response;
  }
  void process_into(ByteSpan packet, Bytes& response) override {
    for (const std::uint8_t byte : packet) {
      cov::hit(static_cast<std::uint32_t>(byte) * 977u + 13u);
    }
    response.assign(packet.begin(), packet.end());
  }
};

}  // namespace

int main() {
  const std::size_t execs = static_cast<std::size_t>(
      bench::env_u64("ICSFUZZ_BENCH_HOTPATH_EXECS", 3000));
  const std::size_t densities[] = {32, 256, 1024};

  // -- Map ops A/B. -------------------------------------------------------
  double dense_seconds = 0.0;
  double sparse_seconds = 0.0;
  double per_density_speedup[3] = {0, 0, 0};
  std::uint64_t sink = 0;
  std::size_t tier = 0;
  for (const std::size_t edges : densities) {
    const std::vector<Trace> traces = make_traces(execs, edges, 1000 + edges);
    cov::CoverageMap sparse_map;
    cov::CoverageMap dense_map;
    // Warm both arms (page in maps, saturate virgin bits) with a slice.
    std::uint64_t warm_sink = 0;
    const std::vector<Trace> warmup(traces.begin(),
                                    traces.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            std::min<std::size_t>(64, execs)));
    time_arm(
        sparse_map, warmup, [](cov::CoverageMap& m) { m.begin_execution(); },
        [](cov::CoverageMap& m) { return m.finalize_execution(); }, warm_sink);
    time_arm(
        dense_map, warmup,
        [](cov::CoverageMap& m) { m.begin_execution_dense(); },
        [](cov::CoverageMap& m) { return m.finalize_execution_dense(); },
        warm_sink);

    const double sparse = time_arm(
        sparse_map, traces, [](cov::CoverageMap& m) { m.begin_execution(); },
        [](cov::CoverageMap& m) { return m.finalize_execution(); }, sink);
    const double dense = time_arm(
        dense_map, traces,
        [](cov::CoverageMap& m) { m.begin_execution_dense(); },
        [](cov::CoverageMap& m) { return m.finalize_execution_dense(); },
        sink);
    sparse_seconds += sparse;
    dense_seconds += dense;
    per_density_speedup[tier++] = sparse > 0.0 ? dense / sparse : 0.0;
  }
  const double total_map_execs =
      static_cast<double>(execs) * std::size(densities);
  const double speedup =
      sparse_seconds > 0.0 ? dense_seconds / sparse_seconds : 0.0;

  // -- SIMD kernel A/B: scalar reference vs best kernel, sparse path. -----
  const cov::simd::Kernel best_kernel = cov::simd::best_kernel();
  double scalar_analysis_seconds = 0.0;
  double simd_analysis_seconds = 0.0;
  double per_density_simd_speedup[3] = {0, 0, 0};
  std::uint64_t scalar_sink = 0;
  std::uint64_t simd_sink = 0;
  tier = 0;
  for (const std::size_t edges : densities) {
    const std::vector<Trace> traces = make_traces(execs, edges, 2000 + edges);
    cov::CoverageMap scalar_map;
    scalar_map.use_kernel(cov::simd::Kernel::kScalar);
    cov::CoverageMap simd_map;
    simd_map.use_kernel(best_kernel);
    const std::vector<Trace> warmup(traces.begin(),
                                    traces.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            std::min<std::size_t>(64, execs)));
    std::uint64_t warm_sink = 0;
    time_analysis(scalar_map, warmup, warm_sink);
    time_analysis(simd_map, warmup, warm_sink);

    const double scalar = time_analysis(scalar_map, traces, scalar_sink);
    const double simd = time_analysis(simd_map, traces, simd_sink);
    scalar_analysis_seconds += scalar;
    simd_analysis_seconds += simd;
    per_density_simd_speedup[tier++] = simd > 0.0 ? scalar / simd : 0.0;
  }
  const bool simd_matches_scalar = scalar_sink == simd_sink;
  const double simd_speedup = simd_analysis_seconds > 0.0
                                  ? scalar_analysis_seconds /
                                        simd_analysis_seconds
                                  : 0.0;

  // -- Merge A/B: steady-state worker-to-exchange folds, scalar vs SIMD. --
  // Source map with saturated coverage; destination already holds it, so
  // every merge is the "peer has nothing new" case a syncing campaign spends
  // nearly all its time in.
  double merge_speedup = 0.0;
  {
    cov::CoverageMap source;
    const std::vector<Trace> traces = make_traces(256, 1024, 7777);
    std::uint64_t warm_sink = 0;
    time_analysis(source, traces, warm_sink);
    const std::size_t merge_iters = 2000;
    double seconds[2] = {0, 0};
    int arm = 0;
    for (const cov::simd::Kernel kind :
         {cov::simd::Kernel::kScalar, best_kernel}) {
      cov::CoverageMap dst;
      dst.use_kernel(kind);
      dst.merge(source);  // after this, merges add nothing
      const auto start = Clock::now();
      bool added = false;
      for (std::size_t i = 0; i < merge_iters; ++i) added |= dst.merge(source);
      seconds[arm++] =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (added) std::fprintf(stderr, "merge steady state added bits?\n");
    }
    merge_speedup = seconds[1] > 0.0 ? seconds[0] / seconds[1] : 0.0;
  }

  // -- Path-tracker probe A/B: open addressing vs unordered_set. ----------
  // A long campaign's record() stream: the resident path set grows to a
  // few tens of thousands while the overwhelming majority of executions
  // replay known paths — the probe-miss-free regime both stores spend
  // their time in.
  double path_record_ops_per_sec = 0.0;
  double path_probe_speedup = 0.0;
  {
    const std::size_t resident = 50000;
    const std::size_t probes = 2000000;
    std::vector<std::uint64_t> stream;
    stream.reserve(probes);
    Rng rng(0x9A7B);
    for (std::size_t i = 0; i < probes; ++i) {
      // ~3% fresh hashes, the rest repeats from the resident set.
      stream.push_back(rng.chance(3, 100)
                           ? rng.next_u64()
                           : mix64(rng.below(resident)));
    }
    cov::PathTracker tracker;
    std::unordered_set<std::uint64_t> reference;
    for (std::size_t i = 0; i < resident; ++i) {
      tracker.record(mix64(i));
      reference.insert(mix64(i));
    }
    std::size_t tracker_new = 0;
    const auto tracker_start = Clock::now();
    for (const std::uint64_t hash : stream) {
      tracker_new += tracker.record(hash) ? 1 : 0;
    }
    const double tracker_seconds =
        std::chrono::duration<double>(Clock::now() - tracker_start).count();
    std::size_t set_new = 0;
    const auto set_start = Clock::now();
    for (const std::uint64_t hash : stream) {
      set_new += reference.insert(hash).second ? 1 : 0;
    }
    const double set_seconds =
        std::chrono::duration<double>(Clock::now() - set_start).count();
    if (tracker_new != set_new) {
      std::fprintf(stderr, "path tracker diverged from the set oracle\n");
      return 1;
    }
    path_record_ops_per_sec =
        tracker_seconds > 0.0 ? static_cast<double>(probes) / tracker_seconds
                              : 0.0;
    path_probe_speedup =
        tracker_seconds > 0.0 ? set_seconds / tracker_seconds : 0.0;
  }

  // -- Executor pipeline: throughput + steady-state allocations. ----------
  StubTarget target;
  fuzz::Executor executor;
  fuzz::ExecResult result;
  const std::vector<Bytes> packets = {
      Bytes{1, 2, 3, 4, 5, 6, 7, 8}, Bytes{9, 8, 7, 6, 5},
      Bytes{1, 1, 2, 3, 5, 8, 13, 21, 34, 55}, Bytes{0x42, 0x43}};
  for (std::size_t i = 0; i < 512; ++i) {  // warm-up
    executor.run_into(target, packets[i % packets.size()], result);
  }
  const std::size_t exec_iters = 20000;
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const auto exec_start = Clock::now();
  for (std::size_t i = 0; i < exec_iters; ++i) {
    executor.run_into(target, packets[i % packets.size()], result);
  }
  const double exec_seconds =
      std::chrono::duration<double>(Clock::now() - exec_start).count();
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);
  const double allocs_per_exec =
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(exec_iters);

  // -- Stacked mutation ping-pong allocations. ----------------------------
  const mutation::MutatorSuite mutators;
  Rng rng(4242);
  const Bytes seed = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  Bytes a;
  Bytes b;
  for (int i = 0; i < 8192; ++i) {  // warm-up
    a.assign(seed.begin(), seed.end());
    mutators.mutate_bytes_into(a, b, rng);
    a.swap(b);
  }
  const std::size_t mut_iters = 8192;
  const std::uint64_t mut_before =
      g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < mut_iters; ++i) {
    a.assign(seed.begin(), seed.end());
    mutators.mutate_bytes_into(a, b, rng);
    a.swap(b);
  }
  const double mut_allocs =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          mut_before) /
      static_cast<double>(mut_iters);

  // -- Generation allocations. --------------------------------------------
  const double gen_allocs = generate_allocs_per_packet();

  std::printf("{\n  \"bench\": \"hotpath\",\n");
  std::printf("  \"map_execs_per_density\": %zu,\n", execs);
  std::printf("  \"dense_map_execs_per_sec\": %.0f,\n",
              dense_seconds > 0.0 ? total_map_execs / dense_seconds : 0.0);
  std::printf("  \"sparse_map_execs_per_sec\": %.0f,\n",
              sparse_seconds > 0.0 ? total_map_execs / sparse_seconds : 0.0);
  std::printf("  \"speedup_vs_dense\": %.2f,\n", speedup);
  std::printf("  \"speedup_vs_dense_32_edges\": %.2f,\n",
              per_density_speedup[0]);
  std::printf("  \"speedup_vs_dense_256_edges\": %.2f,\n",
              per_density_speedup[1]);
  std::printf("  \"speedup_vs_dense_1024_edges\": %.2f,\n",
              per_density_speedup[2]);
  std::printf("  \"simd_kernel\": \"%s\",\n",
              std::string(cov::simd::kernel_name(best_kernel)).c_str());
  const double analysis_execs = total_map_execs;
  std::printf("  \"scalar_analysis_execs_per_sec\": %.0f,\n",
              scalar_analysis_seconds > 0.0
                  ? analysis_execs / scalar_analysis_seconds
                  : 0.0);
  std::printf("  \"simd_analysis_execs_per_sec\": %.0f,\n",
              simd_analysis_seconds > 0.0
                  ? analysis_execs / simd_analysis_seconds
                  : 0.0);
  std::printf("  \"speedup_vs_scalar_sparse\": %.2f,\n", simd_speedup);
  std::printf("  \"speedup_vs_scalar_sparse_32_edges\": %.2f,\n",
              per_density_simd_speedup[0]);
  std::printf("  \"speedup_vs_scalar_sparse_256_edges\": %.2f,\n",
              per_density_simd_speedup[1]);
  std::printf("  \"speedup_vs_scalar_sparse_1024_edges\": %.2f,\n",
              per_density_simd_speedup[2]);
  std::printf("  \"simd_matches_scalar\": %s,\n",
              simd_matches_scalar ? "true" : "false");
  std::printf("  \"merge_speedup_vs_scalar\": %.2f,\n", merge_speedup);
  std::printf("  \"path_record_ops_per_sec\": %.0f,\n",
              path_record_ops_per_sec);
  std::printf("  \"path_probe_speedup_vs_set\": %.2f,\n", path_probe_speedup);
  std::printf("  \"executor_execs_per_sec\": %.0f,\n",
              exec_seconds > 0.0 ? static_cast<double>(exec_iters) /
                                       exec_seconds
                                 : 0.0);
  std::printf("  \"steady_state_allocs_per_exec\": %.4f,\n", allocs_per_exec);
  std::printf("  \"mutate_into_allocs_per_iter\": %.4f,\n", mut_allocs);
  std::printf("  \"generate_allocs_per_packet\": %.4f,\n", gen_allocs);
  std::printf("  \"checksum\": %llu\n}\n",
              static_cast<unsigned long long>(sink & 0xFFFF));
  return allocs_per_exec == 0.0 && mut_allocs == 0.0 && gen_allocs == 0.0 &&
                 simd_matches_scalar
             ? 0
             : 1;
}
