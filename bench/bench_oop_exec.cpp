// Out-of-process execution bench: fork-server throughput plus the
// differential oracle, reported as one JSON document for the
// bench-regression gate.
//
// Three arms run the identical deterministic packet batch against the same
// protocol stack (libmodbus):
//
//   * fork-per-exec — fuzz::Executor with an out-of-process backend
//     pointing at the shim binary: every execution pays a fresh child
//     (the shim's fork(), budget K = 1), the handoff round trip, the
//     adoption of the shm trace and the fused analysis.
//     `oop_execs_per_sec` is floored by the baseline;
//     the acceptance bar is fork-server execution in the thousands per
//     second.
//
//   * persistent — the same backend in persistent mode (ICSFUZZ_LOOP-style
//     children, packets through shm slots, run_batch keeping all four
//     slots in flight):
//     the per-exec fork() disappears and `persistent_execs_per_sec` must
//     clear both an absolute floor and a relative one
//     (`persistent_speedup` over fork-per-exec — the order-of-magnitude
//     win that motivates the mode). Executions pass straight between
//     client and child, so the fork server sleeps between recycles:
//     `persistent_shim_switches_per_exec`, its context switches over the
//     arm per execution, is capped — a count, not a rate, so it holds on
//     any hardware. Each result is adopted from the dirty-word list the
//     child publishes next to it; `persistent_full_scan_pct`, the share of
//     the arm's executions whose trace the client had to find by scanning
//     the whole map instead (the fallback), is capped too.
//
//   * in-process — the plain Executor on the same packets.
//     `slowdown_vs_in_process` contextualizes the fork tax, and all arms'
//     per-execution trace hashes / edge counts are folded into checksums
//     that must match exactly (`matches_in_process`,
//     `persistent_matches_in_process`) — the differential oracle as a
//     continuously-gated bench invariant, not just a test. A dedicated
//     probe additionally gates `state_bleed_free`: the same packet at
//     iteration 1 and iteration K-1 of one persistent child must produce
//     identical coverage and observables.
//
//   * adaptive loop — a whole Peach* fuzz::Fuzzer campaign on kPersistent,
//     whose step loop keeps the same four slots busy with speculatively
//     generated packets and discards them when feedback moves, against the
//     same campaign in-process. `fuzzer_persistent_execs_per_sec` is its
//     rate, `fuzzer_persistent_matches_in_process` requires the two
//     campaigns' checkpoint images (rng, dedup tables, corpus, crashes,
//     retained seeds, coverage, paths) to be identical, and
//     `speculative_discard_pct` is the share of the persistent server's
//     executions the window threw away — capped, because a discard is a
//     wasted round trip.
//
// Budget knobs:
//   ICSFUZZ_BENCH_OOP_EXECS              executions per fork-per-exec arm
//                                        (default 12000)
//   ICSFUZZ_BENCH_OOP_PERSISTENT_EXECS   executions for the persistent arm
//                                        and steps of the adaptive-loop
//                                        arm (default 60000)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coverage/coverage_map.hpp"
#include "exec_oop/oop_executor.hpp"
#include "fuzzer/executor.hpp"
#include "fuzzer/fuzzer.hpp"
#include "model/instantiation.hpp"
#include "mutation/mutator.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "supervise/checkpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace {

using namespace icsfuzz;
using Clock = std::chrono::steady_clock;

// Generous deadline: on a noisy shared runner a scheduler stall must not
// turn a healthy exec into a Hang fault and fail the matches_in_process
// gate (the fault-injection suite covers the deadline path explicitly).
constexpr int kBenchTimeoutMs = 30000;

/// Deterministic packet pool: every libmodbus model's default instance
/// plus fixed-seed mutations — the mix a real campaign's steady state
/// replays.
std::vector<Bytes> make_packets() {
  const model::DataModelSet models = pits::pit_for_project("libmodbus");
  const mutation::MutatorSuite mutators;
  Rng rng(0xBE7C);
  std::vector<Bytes> packets;
  for (const model::DataModel& model : models.models()) {
    Bytes base = model::default_instance(model).serialize();
    for (int m = 0; m < 7; ++m) {
      packets.push_back(mutators.mutate_bytes(base, rng));
    }
    packets.push_back(std::move(base));
  }
  return packets;
}

fuzz::ExecutorConfig backend_config(fuzz::BackendKind kind) {
  fuzz::ExecutorConfig config;
  config.backend.kind = kind;
  config.backend.target_cmd = {ICSFUZZ_SHIM_PATH, "--project", "libmodbus"};
  config.backend.exec_timeout_ms = kBenchTimeoutMs;
  return config;
}

struct ArmResult {
  double seconds = 0.0;
  std::uint64_t checksum = 0;
};

std::uint64_t fold(std::uint64_t checksum, const fuzz::ExecResult& result) {
  return checksum * 0x100000001B3ULL ^
         (result.trace_hash + result.trace_edges +
          (result.new_coverage ? 1 : 0) + result.faults.size());
}

ArmResult run_arm(fuzz::Executor& executor, ProtocolTarget& target,
                  const std::vector<Bytes>& packets, std::size_t execs) {
  fuzz::ExecResult result;
  ArmResult arm;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < execs; ++i) {
    executor.run_into(target, packets[i % packets.size()], result);
    arm.checksum = fold(arm.checksum, result);
  }
  arm.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return arm;
}

/// The persistent arm dispatches through run_batch (the pipelined path a
/// replay workload uses), one full pass over the pool per round — the same
/// packet sequence as run_arm's `i % packets.size()` indexing.
ArmResult run_batch_arm(fuzz::Executor& executor, ProtocolTarget& target,
                        const std::vector<Bytes>& packets,
                        std::size_t execs) {
  ArmResult arm;
  const std::size_t rounds = execs / packets.size();
  const std::vector<Bytes> remainder(packets.begin(),
                                     packets.begin() +
                                         (execs % packets.size()));
  const auto start = Clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    executor.run_batch(target, packets,
                       [&](std::size_t, const fuzz::ExecResult& result) {
                         arm.checksum = fold(arm.checksum, result);
                       });
  }
  executor.run_batch(target, remainder,
                     [&](std::size_t, const fuzz::ExecResult& result) {
                       arm.checksum = fold(arm.checksum, result);
                     });
  arm.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return arm;
}

/// State-bleed probe: the same packet at iteration 1 and iteration K-1 of
/// one persistent child must be indistinguishable (coverage bytes, events,
/// response) — any leak across the ICSFUZZ_LOOP iterations breaks it.
bool probe_state_bleed(const std::vector<Bytes>& packets) {
  constexpr std::uint32_t kBudget = 8;
  oop::TargetConfig config;
  config.target_cmd = {ICSFUZZ_SHIM_PATH, "--project", "libmodbus"};
  config.exec_timeout_ms = kBenchTimeoutMs;
  config.persistent_budget = kBudget;
  oop::OutOfProcessExecutor exec(config);

  const Bytes& probe = packets.front();
  const oop::OutOfProcessExecutor::Outcome first = exec.run(probe);
  if (first.status != oop::ExecStatus::kOk || !first.persistent ||
      first.iteration != 1) {
    return false;
  }
  std::vector<std::uint64_t> first_map(exec.map_words(),
                                       exec.map_words() + cov::kMapWords);
  for (std::uint32_t i = 2; i <= kBudget - 2; ++i) {
    if (exec.run(packets[i % packets.size()]).status != oop::ExecStatus::kOk) {
      return false;
    }
  }
  const oop::OutOfProcessExecutor::Outcome& again = exec.run(probe);
  return again.status == oop::ExecStatus::kOk &&
         again.iteration == kBudget - 1 &&
         again.aux.events == first.aux.events &&
         again.aux.response == first.aux.response &&
         std::memcmp(first_map.data(), exec.map_words(), cov::kMapSize) == 0;
}

/// One adaptive-loop campaign's outcome.
struct CampaignResult {
  double seconds = 0.0;
  /// The campaign's checkpoint image, wall-clock stamps zeroed.
  std::string image;
  std::uint64_t executions = 0;
  std::uint64_t discards = 0;
};

/// A fixed-seed Peach* campaign of `steps` steps over libmodbus on `kind`.
CampaignResult run_campaign(fuzz::BackendKind kind, std::uint64_t steps) {
  const auto factory = proto::target_factory("libmodbus");
  const std::unique_ptr<ProtocolTarget> target = factory();
  const model::DataModelSet models = pits::pit_for_project("libmodbus");
  telem::Telemetry hub;
  fuzz::FuzzerConfig config;
  config.strategy = fuzz::Strategy::PeachStar;
  config.rng_seed = 0xADA7;
  config.telemetry = telem::Sink(&hub, 0);
  if (kind != fuzz::BackendKind::kInProcess) {
    config.executor = backend_config(kind);
  }
  fuzz::Fuzzer fuzzer(*target, models, config);
  fuzzer.step_fast();  // spawns the fork server outside the timed region
  const auto start = Clock::now();
  for (std::uint64_t i = 1; i < steps; ++i) fuzzer.step_fast();
  CampaignResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  fuzzer.finish();

  par::WorkerState state;
  state.fuzzer = fuzzer.capture_checkpoint();
  for (fuzz::Checkpoint& point : state.fuzzer.stats_points) point.wall_ns = 0;
  supervise::CampaignCheckpoint image;
  image.workers.push_back(std::move(state));
  result.image = supervise::serialize_checkpoint(image);
  result.executions = fuzzer.executor().executions();
  result.discards =
      hub.snapshot().counter(telem::Counter::kOopSpeculativeDiscards);
  return result;
}

}  // namespace

int main() {
  const std::size_t execs = static_cast<std::size_t>(
      bench::env_u64("ICSFUZZ_BENCH_OOP_EXECS", 12000));
  const std::size_t persistent_execs = static_cast<std::size_t>(
      bench::env_u64("ICSFUZZ_BENCH_OOP_PERSISTENT_EXECS", 60000));
  const std::vector<Bytes> packets = make_packets();

  const auto factory = proto::target_factory("libmodbus");
  const std::unique_ptr<ProtocolTarget> placeholder = factory();
  const std::unique_ptr<ProtocolTarget> inproc_target = factory();

  fuzz::Executor oop_executor(
      backend_config(fuzz::BackendKind::kForkPerExec));
  telem::Telemetry persistent_hub;
  fuzz::ExecutorConfig persistent_config =
      backend_config(fuzz::BackendKind::kPersistent);
  persistent_config.telemetry = telem::Sink(&persistent_hub, 0);
  fuzz::Executor persistent_executor(persistent_config);
  fuzz::Executor inproc_executor;

  // Warm-up: spawn the fork servers, converge buffer capacities, saturate
  // the virgin maps so all arms measure the steady-state regime.
  run_arm(oop_executor, *placeholder, packets, 256);
  run_batch_arm(persistent_executor, *placeholder, packets, 256);
  run_arm(inproc_executor, *inproc_target, packets, 256);

  const ArmResult oop = run_arm(oop_executor, *placeholder, packets, execs);
  const ArmResult inproc =
      run_arm(inproc_executor, *inproc_target, packets, execs);
  const auto* persistent_backend = persistent_executor.oop_backend();
  const auto shim_switches = [&] {
    return persistent_backend != nullptr
               ? persistent_backend->process().context_switches()
               : 0;
  };
  const auto full_scans = [&] {
    return persistent_hub.snapshot().counter(
        telem::Counter::kOopAdoptFullScans);
  };
  const std::uint64_t switches_before = shim_switches();
  const std::uint64_t full_scans_before = full_scans();
  const ArmResult persistent =
      run_batch_arm(persistent_executor, *placeholder, packets,
                    persistent_execs);
  const std::uint64_t shim_switch_count = shim_switches() - switches_before;
  const std::uint64_t full_scan_count = full_scans() - full_scans_before;

  // The persistent checksum covers a different execution count; compare it
  // against a fresh in-process replay of the same sequence, with the same
  // 256-exec warm-up so new_coverage flags line up in the measured region.
  fuzz::Executor inproc_replay;
  const std::unique_ptr<ProtocolTarget> replay_target = factory();
  run_arm(inproc_replay, *replay_target, packets, 256);
  const ArmResult inproc_persistent_ref =
      run_arm(inproc_replay, *replay_target, packets, persistent_execs);

  const CampaignResult loop =
      run_campaign(fuzz::BackendKind::kPersistent, persistent_execs);
  const CampaignResult loop_reference =
      run_campaign(fuzz::BackendKind::kInProcess, persistent_execs);
  const bool loop_matches = loop.image == loop_reference.image &&
                            loop.executions == persistent_execs;
  const double loop_rate =
      loop.seconds > 0.0
          ? static_cast<double>(persistent_execs - 1) / loop.seconds
          : 0.0;
  const double discard_pct =
      loop.executions + loop.discards > 0
          ? 100.0 * static_cast<double>(loop.discards) /
                static_cast<double>(loop.executions + loop.discards)
          : 0.0;

  const bool matches = oop.checksum == inproc.checksum;
  const bool persistent_matches =
      persistent.checksum == inproc_persistent_ref.checksum;
  const bool state_bleed_free = probe_state_bleed(packets);
  const double oop_rate =
      oop.seconds > 0.0 ? static_cast<double>(execs) / oop.seconds : 0.0;
  const double inproc_rate =
      inproc.seconds > 0.0 ? static_cast<double>(execs) / inproc.seconds
                           : 0.0;
  const double persistent_rate =
      persistent.seconds > 0.0
          ? static_cast<double>(persistent_execs) / persistent.seconds
          : 0.0;
  const std::uint64_t restarts =
      oop_executor.oop_backend() != nullptr
          ? oop_executor.oop_backend()->server_restarts()
          : 0;
  const std::uint64_t persistent_restarts =
      persistent_backend != nullptr ? persistent_backend->server_restarts()
                                    : 0;
  const std::uint64_t recycles =
      persistent_backend != nullptr ? persistent_backend->child_recycles()
                                    : 0;
  const bool persistent_active =
      persistent_backend != nullptr && persistent_backend->persistent_active();

  std::printf("{\n  \"bench\": \"oop_exec\",\n");
  std::printf("  \"execs_per_arm\": %zu,\n", execs);
  std::printf("  \"oop_execs_per_sec\": %.0f,\n", oop_rate);
  std::printf("  \"in_process_execs_per_sec\": %.0f,\n", inproc_rate);
  std::printf("  \"slowdown_vs_in_process\": %.2f,\n",
              oop_rate > 0.0 ? inproc_rate / oop_rate : 0.0);
  std::printf("  \"matches_in_process\": %s,\n", matches ? "true" : "false");
  std::printf("  \"server_restarts\": %llu,\n",
              static_cast<unsigned long long>(restarts));
  std::printf("  \"persistent_execs\": %zu,\n", persistent_execs);
  std::printf("  \"persistent_execs_per_sec\": %.0f,\n", persistent_rate);
  std::printf("  \"persistent_speedup\": %.2f,\n",
              oop_rate > 0.0 ? persistent_rate / oop_rate : 0.0);
  std::printf("  \"persistent_matches_in_process\": %s,\n",
              persistent_matches ? "true" : "false");
  std::printf("  \"persistent_mode_active\": %s,\n",
              persistent_active ? "true" : "false");
  std::printf("  \"state_bleed_free\": %s,\n",
              state_bleed_free ? "true" : "false");
  std::printf("  \"persistent_server_restarts\": %llu,\n",
              static_cast<unsigned long long>(persistent_restarts));
  std::printf("  \"persistent_child_recycles\": %llu,\n",
              static_cast<unsigned long long>(recycles));
  std::printf("  \"persistent_shim_switches_per_exec\": %.5f,\n",
              persistent_execs > 0
                  ? static_cast<double>(shim_switch_count) /
                        static_cast<double>(persistent_execs)
                  : 0.0);
  std::printf("  \"persistent_full_scan_pct\": %.3f,\n",
              persistent_execs > 0
                  ? 100.0 * static_cast<double>(full_scan_count) /
                        static_cast<double>(persistent_execs)
                  : 0.0);
  std::printf("  \"fuzzer_persistent_execs_per_sec\": %.0f,\n", loop_rate);
  std::printf("  \"fuzzer_persistent_matches_in_process\": %s,\n",
              loop_matches ? "true" : "false");
  std::printf("  \"speculative_discard_pct\": %.3f,\n", discard_pct);
  std::printf("  \"checksum\": %llu\n}\n",
              static_cast<unsigned long long>(oop.checksum & 0xFFFF));
  return matches && persistent_matches && state_bleed_free &&
                 persistent_active && loop_matches && restarts == 0 &&
                 persistent_restarts == 0
             ? 0
             : 1;
}
