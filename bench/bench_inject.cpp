// Injection-runtime bench: throughput and fidelity of fuzzing a foreign
// binary (demo/, never linked against icsfuzz) through LD_PRELOAD of
// libicsfuzz-preload.so, reported as one JSON document for the
// bench-regression gate.
//
// Arms, all over the same deterministic libmodbus packet pool:
//
//   * injected fork-per-exec — fuzz::Executor with an out-of-process
//     backend pointing at the instrumented demo server under the preload:
//     every execution pays the injected fork server's fork(), the MBAP
//     parse, the sancov sweep and the fused analysis.
//     `injected_execs_per_sec` is floored by the baseline.
//
//   * injected persistent — the same backend in persistent mode (the
//     preload's cooperation hooks drive shm packet slots): the per-exec
//     fork() disappears and `injected_persistent_execs_per_sec` must clear
//     an absolute floor plus a relative one (`persistent_speedup`).
//
//   * plain fork-per-exec — the uninstrumented demo under the same
//     preload: the fault-driven degrade row, `plain_execs_per_sec` (no
//     gate of its own — it tracks the instrumented arm minus the sancov
//     sweep). `injected_vs_plain` is injected_execs_per_sec over it: both
//     arms run in this process, one after the other, so the ratio cancels
//     the host's fork cost and is gated with a `min`.
//
// Boolean gates folded in:
//
//   * `sancov_edges_observed` — the instrumented arm must surface events
//     and nonzero CoverageMap cells (the bridge actually feeds feedback),
//   * `persistent_mode_active` — the cooperation hooks engaged,
//   * `matches_shim_classification` — the crash/hang/OOM differential of
//     tests/test_inject.cpp as a continuously-gated bench invariant: the
//     demo's real fault endpoints (FC 0x66/0x67/0x68) classify bit for bit
//     like the shim's synthetic faults at the ExecResult level.
//
// Budget knobs:
//   ICSFUZZ_BENCH_INJECT_EXECS             executions per fork-per-exec arm
//                                          (default 3000)
//   ICSFUZZ_BENCH_INJECT_PERSISTENT_EXECS  executions for the persistent arm
//                                          (default 20000)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coverage/coverage_map.hpp"
#include "exec_oop/oop_executor.hpp"
#include "fuzzer/executor.hpp"
#include "inject/inject_protocol.hpp"
#include "model/instantiation.hpp"
#include "mutation/mutator.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace icsfuzz;
using Clock = std::chrono::steady_clock;

// Generous deadline for the non-hang arms (a scheduler stall on a loaded
// runner must not turn a healthy exec into a Hang fault); tight deadline
// for the hang differential, identical on both arms so the synthetic
// fault's detail string matches bit for bit.
constexpr int kBenchTimeoutMs = 30000;
constexpr int kHangTimeoutMs = 1000;
/// Address-space jail for the OOM differential, both arms.
constexpr std::uint64_t kOomJailMb = 256;

const char* preload_path() {
  if (const char* env = std::getenv("ICSFUZZ_PRELOAD")) return env;
  return ICSFUZZ_PRELOAD_PATH;
}

const char* demo_path() {
  if (const char* env = std::getenv("ICSFUZZ_DEMO_SERVER")) return env;
  return ICSFUZZ_DEMO_SERVER_PATH;
}

const char* demo_plain_path() {
  if (const char* env = std::getenv("ICSFUZZ_DEMO_SERVER_PLAIN")) return env;
  return ICSFUZZ_DEMO_SERVER_PLAIN_PATH;
}

/// Deterministic packet pool: the same fixed-seed libmodbus mix the
/// oop_exec bench replays. The demo speaks MBAP framing, so mutated
/// frames exercise its parse/reject paths exactly like a campaign would.
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

/// Benign MBAP read-holding-registers exchange (FC 0x03).
const Bytes kBenign = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                       0x11, 0x03, 0x00, 0x6B, 0x00, 0x03};

/// Minimal frame carrying one of the demo's deliberate fault endpoints.
Bytes fault_frame(std::uint8_t fc) {
  return {0x00, 0x09, 0x00, 0x00, 0x00, 0x02, 0x11, fc};
}
constexpr std::uint8_t kFaultCrash = 0x66;
constexpr std::uint8_t kFaultHang = 0x67;
constexpr std::uint8_t kFaultOom = 0x68;

fuzz::ExecutorConfig injected_config(const char* binary,
                                     fuzz::BackendKind kind,
                                     int timeout_ms = kBenchTimeoutMs,
                                     std::uint64_t jail_mb = 0) {
  fuzz::ExecutorConfig config;
  config.backend.kind = kind;
  config.backend.target_cmd = {binary};
  config.backend.preload = preload_path();
  config.backend.exec_timeout_ms = timeout_ms;
  config.backend.jail.address_space_mb = jail_mb;
  return config;
}

fuzz::ExecutorConfig shim_config(int timeout_ms,
                                 std::uint64_t jail_mb = 0) {
  fuzz::ExecutorConfig config;
  config.backend.kind = fuzz::BackendKind::kForkPerExec;
  config.backend.target_cmd = {ICSFUZZ_SHIM_PATH, "--project", "libmodbus"};
  config.backend.exec_timeout_ms = timeout_ms;
  config.backend.jail.address_space_mb = jail_mb;
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

/// Persistent arm through run_batch — the pipelined dispatch path.
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

std::size_t nonzero_cells(const std::uint64_t* words) {
  std::size_t cells = 0;
  for (std::size_t w = 0; w < cov::kMapWords; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      cells += (word & 0xFF) != 0;
      word >>= 8;
    }
  }
  return cells;
}

/// Sancov-bridge gate: one benign exec against the instrumented demo must
/// surface events, nonzero map cells, and an info block advertising sancov.
bool probe_sancov_edges() {
  oop::TargetConfig config;
  config.target_cmd = {demo_path()};
  config.preload = preload_path();
  config.exec_timeout_ms = kBenchTimeoutMs;
  oop::OutOfProcessExecutor executor(config);
  const oop::OutOfProcessExecutor::Outcome& outcome = executor.run(kBenign);
  if (outcome.status != oop::ExecStatus::kOk || outcome.aux.events == 0) {
    return false;
  }
  if (nonzero_cells(executor.map_words()) == 0) return false;
  const inject::InjectInfo info = inject::read_inject_info(
      executor.segment().data(), executor.segment().size());
  return info.present && info.sancov();
}

/// Runs `packet` once through a fresh fuzz::Executor and returns a copy of
/// the classified result.
fuzz::ExecResult classify(fuzz::ExecutorConfig config, ByteSpan packet) {
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  fuzz::Executor executor(std::move(config));
  return executor.run(*placeholder, packet);
}

bool same_classification(const fuzz::ExecResult& demo,
                         const fuzz::ExecResult& shim) {
  if (!demo.crashed() || demo.crashed() != shim.crashed()) return false;
  if (demo.faults.size() != shim.faults.size()) return false;
  for (std::size_t i = 0; i < demo.faults.size(); ++i) {
    if (demo.faults[i].kind != shim.faults[i].kind ||
        demo.faults[i].site != shim.faults[i].site ||
        demo.faults[i].detail != shim.faults[i].detail) {
      return false;
    }
  }
  return true;
}

/// Shim arm under one fault-plan knob; the env var is scoped to the call
/// so the throughput arms never see a fault plan.
fuzz::ExecResult classify_shim_with(const char* knob, int timeout_ms,
                                    std::uint64_t jail_mb = 0) {
  ::setenv(knob, "1", 1);
  fuzz::ExecResult result =
      classify(shim_config(timeout_ms, jail_mb), kBenign);
  ::unsetenv(knob);
  return result;
}

/// The test_inject.cpp fault differential as a bench gate: the demo's real
/// crash/hang/OOM endpoints must classify exactly like the shim's
/// synthetic ones — FaultKind, site, and detail string all equal.
bool probe_shim_differential() {
  const fuzz::ExecResult demo_crash =
      classify(injected_config(demo_path(), fuzz::BackendKind::kForkPerExec),
               fault_frame(kFaultCrash));
  if (!same_classification(
          demo_crash,
          classify_shim_with("ICSFUZZ_SHIM_SEGV_AT", kBenchTimeoutMs))) {
    return false;
  }

  const fuzz::ExecResult demo_hang =
      classify(injected_config(demo_path(), fuzz::BackendKind::kForkPerExec,
                               kHangTimeoutMs),
               fault_frame(kFaultHang));
  if (!same_classification(
          demo_hang,
          classify_shim_with("ICSFUZZ_SHIM_HANG_AT", kHangTimeoutMs))) {
    return false;
  }

  const fuzz::ExecResult demo_oom =
      classify(injected_config(demo_path(), fuzz::BackendKind::kForkPerExec,
                               kBenchTimeoutMs, kOomJailMb),
               fault_frame(kFaultOom));
  return same_classification(
      demo_oom, classify_shim_with("ICSFUZZ_SHIM_OOM_AT", kBenchTimeoutMs,
                                   kOomJailMb));
}

}  // namespace

int main() {
  const std::size_t execs = static_cast<std::size_t>(
      bench::env_u64("ICSFUZZ_BENCH_INJECT_EXECS", 3000));
  const std::size_t persistent_execs = static_cast<std::size_t>(
      bench::env_u64("ICSFUZZ_BENCH_INJECT_PERSISTENT_EXECS", 20000));
  const std::vector<Bytes> packets = make_packets();

  const auto factory = proto::target_factory("libmodbus");
  const std::unique_ptr<ProtocolTarget> placeholder = factory();

  fuzz::Executor injected_executor(
      injected_config(demo_path(), fuzz::BackendKind::kForkPerExec));
  fuzz::Executor persistent_executor(
      injected_config(demo_path(), fuzz::BackendKind::kPersistent));
  fuzz::Executor plain_executor(
      injected_config(demo_plain_path(), fuzz::BackendKind::kForkPerExec));

  // Warm-up: spawn the injected fork servers, converge buffer capacities,
  // saturate the virgin maps so all arms measure steady state.
  run_arm(injected_executor, *placeholder, packets, 128);
  run_batch_arm(persistent_executor, *placeholder, packets, 128);
  run_arm(plain_executor, *placeholder, packets, 128);

  const ArmResult injected =
      run_arm(injected_executor, *placeholder, packets, execs);
  const ArmResult plain =
      run_arm(plain_executor, *placeholder, packets, execs);
  const ArmResult persistent = run_batch_arm(persistent_executor,
                                             *placeholder, packets,
                                             persistent_execs);

  const auto* injected_backend = injected_executor.oop_backend();
  const auto* persistent_backend = persistent_executor.oop_backend();
  const std::uint64_t restarts =
      injected_backend != nullptr ? injected_backend->server_restarts() : 0;
  const std::uint64_t persistent_restarts =
      persistent_backend != nullptr ? persistent_backend->server_restarts()
                                    : 0;
  const bool persistent_active =
      persistent_backend != nullptr && persistent_backend->persistent_active();

  const bool sancov_edges = probe_sancov_edges();
  const bool matches_shim = probe_shim_differential();

  const double injected_rate =
      injected.seconds > 0.0
          ? static_cast<double>(execs) / injected.seconds
          : 0.0;
  const double plain_rate =
      plain.seconds > 0.0 ? static_cast<double>(execs) / plain.seconds : 0.0;
  const double persistent_rate =
      persistent.seconds > 0.0
          ? static_cast<double>(persistent_execs) / persistent.seconds
          : 0.0;

  std::printf("{\n  \"bench\": \"inject\",\n");
  std::printf("  \"execs_per_arm\": %zu,\n", execs);
  std::printf("  \"injected_execs_per_sec\": %.0f,\n", injected_rate);
  std::printf("  \"plain_execs_per_sec\": %.0f,\n", plain_rate);
  std::printf("  \"injected_vs_plain\": %.3f,\n",
              plain_rate > 0.0 ? injected_rate / plain_rate : 0.0);
  std::printf("  \"persistent_execs\": %zu,\n", persistent_execs);
  std::printf("  \"injected_persistent_execs_per_sec\": %.0f,\n",
              persistent_rate);
  std::printf("  \"persistent_speedup\": %.2f,\n",
              injected_rate > 0.0 ? persistent_rate / injected_rate : 0.0);
  std::printf("  \"persistent_mode_active\": %s,\n",
              persistent_active ? "true" : "false");
  std::printf("  \"sancov_edges_observed\": %s,\n",
              sancov_edges ? "true" : "false");
  std::printf("  \"matches_shim_classification\": %s,\n",
              matches_shim ? "true" : "false");
  std::printf("  \"server_restarts\": %llu,\n",
              static_cast<unsigned long long>(restarts));
  std::printf("  \"persistent_server_restarts\": %llu,\n",
              static_cast<unsigned long long>(persistent_restarts));
  std::printf("  \"checksum\": %llu\n}\n",
              static_cast<unsigned long long>(injected.checksum & 0xFFFF));
  return sancov_edges && matches_shim && persistent_active &&
                 restarts == 0 && persistent_restarts == 0
             ? 0
             : 1;
}
