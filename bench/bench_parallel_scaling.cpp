// Parallel-campaign scaling bench: executions/sec of a W-worker campaign
// (run by supervise::CampaignSupervisor as one chunk with no checkpoint) at
// W ∈ {1, 2, 4} workers on the Modbus target, emitted as one JSON document
// for the bench trajectory.
//
// Each configuration runs the same per-worker budget, so total work scales
// with W and the speedup column is the throughput ratio vs W=1. On a
// single-core container the ratio stays near 1.0 (the workers time-slice
// one core); the headroom shows up on real multi-core hardware. The W=1
// row's worker results are bit-for-bit the sequential engine
// (tests/test_parallel.cpp asserts this), so `paths_w1` doubles as the
// sequential-campaign reference for the coverage-parity check.
//
// Budget knobs:
//   ICSFUZZ_BENCH_ITERS  executions per worker    (default 20000)
//   ICSFUZZ_BENCH_SYNC   executions between syncs (default 1024)
#include <cstdio>

#include "bench_common.hpp"
#include "supervise/supervisor.hpp"

int main() {
  using namespace icsfuzz;

  const std::uint64_t iterations =
      bench::env_u64("ICSFUZZ_BENCH_ITERS", 20000);
  const std::uint64_t sync_interval =
      bench::env_u64("ICSFUZZ_BENCH_SYNC", 1024);
  const std::string project = "libmodbus";
  const model::DataModelSet models = pits::pit_for_project(project);
  const fuzz::TargetFactory factory = bench::target_factory(project);

  std::printf("{\n  \"bench\": \"parallel_scaling\",\n");
  std::printf("  \"project\": \"%s\",\n", project.c_str());
  std::printf("  \"iterations_per_worker\": %llu,\n",
              static_cast<unsigned long long>(iterations));
  std::printf("  \"sync_interval\": %llu,\n",
              static_cast<unsigned long long>(sync_interval));
  std::printf("  \"results\": [\n");

  double w1_rate = 0.0;
  std::size_t w1_paths = 0;
  const std::size_t worker_counts[] = {1, 2, 4};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t workers = worker_counts[i];
    supervise::SupervisorConfig config;
    config.campaign.workers = workers;
    config.campaign.iterations_per_worker = iterations;
    config.campaign.base_seed = 1000;
    config.campaign.sync_interval = sync_interval;
    config.checkpoint_interval = 0;  // one chunk; no checkpoint_path, no image
    supervise::CampaignSupervisor campaign(factory, models, config);
    const par::ParallelCampaignResult result = campaign.run().campaign;

    const double rate = result.execs_per_second();
    if (workers == 1) {
      w1_rate = rate;
      w1_paths = result.global_paths;
    }
    std::printf(
        "    {\"workers\": %zu, \"executions\": %llu, "
        "\"wall_seconds\": %.3f, \"execs_per_sec\": %.0f, "
        "\"speedup_vs_w1\": %.2f, \"global_paths\": %zu, "
        "\"global_edges\": %zu, \"paths_vs_w1_pct\": %.2f, "
        "\"seeds_published\": %zu}%s\n",
        workers, static_cast<unsigned long long>(result.total_executions),
        result.wall_seconds, rate, w1_rate > 0.0 ? rate / w1_rate : 0.0,
        result.global_paths, result.global_edges,
        w1_paths > 0
            ? (static_cast<double>(result.global_paths) -
               static_cast<double>(w1_paths)) /
                  static_cast<double>(w1_paths) * 100.0
            : 0.0,
        result.seeds_published, i + 1 < 3 ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
