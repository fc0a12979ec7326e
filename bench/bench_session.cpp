// Loopback session-execution bench: stateful session throughput plus the
// session differential oracle, reported as one JSON document for the
// bench-regression gate.
//
// Two arms execute the identical deterministic pool of IEC 104 session
// streams (SessionSequencer output: STARTDT handshakes, ASDU bursts,
// sequence mutations) against the same stack:
//
//   * tcp — fuzz::Executor with the kTcp session backend driving an
//     external `icsfuzz-shim-target --tcp` server over a real loopback
//     socket: per execution one connection and one pipelined exchange
//     (the whole stream sent while the replies are read to EOF, then split
//     per message by the response-length log in the session's segment
//     slot), coverage adopted from the slot's map through its dirty-word
//     list. `session_execs_per_sec` is floored by the baseline.
//     `session_full_scan_pct` (the share of measured TCP executions booked
//     as oop_adopt_full_scans) and `session_server_restarts` (the arm's
//     server respawns) are gated at ~0: a slot or list mix-up in the
//     transport would keep the oracle green and only fall back to full
//     scans, or lose the server.
//
//   * in-process — the in-process session backend on the same streams:
//     the same canonical split, the same per-message state chain, no
//     socket. `slowdown_vs_in_process` contextualizes the transport tax.
//
// Both arms' per-execution trace hashes, edge counts and session-state
// chains fold into checksums that must match exactly
// (`matches_in_process`) — the session differential oracle as a
// continuously-gated bench invariant. `session_states_reached` must be
// nonzero: a session bench that reaches no stateful coverage is measuring
// the wrong thing.
//
// Budget knob:
//   ICSFUZZ_BENCH_SESSION_EXECS   session executions per arm (default 4000)
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec_oop/target_process.hpp"
#include "fuzzer/executor.hpp"
#include "fuzzer/instantiator.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "session/framing.hpp"
#include "session/sequencer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace {

using namespace icsfuzz;
using Clock = std::chrono::steady_clock;

// Generous deadline: a scheduler stall on a noisy shared runner must not
// turn a healthy session into a Hang fault and fail the oracle gate.
constexpr int kBenchTimeoutMs = 30000;

constexpr const char* kProject = "IEC104";

/// Deterministic session-stream pool: fixed-seed sequencer output — the
/// handshake choreographies and mutated sequences a stateful campaign's
/// steady state replays.
std::vector<Bytes> make_streams() {
  const model::DataModelSet models = pits::pit_for_project(kProject);
  const fuzz::ModelInstantiator instantiator;
  session::SequencerConfig config;
  config.enabled = true;
  config.framing = session::framing_for_project(kProject);
  config.project = kProject;
  session::SessionSequencer sequencer(config, models, instantiator);
  Rng rng(0x5E55BE7C);
  std::vector<Bytes> streams;
  Bytes out;
  for (int i = 0; i < 48; ++i) {
    sequencer.generate_into(rng, out);
    streams.push_back(out);
  }
  return streams;
}

fuzz::ExecutorConfig session_config(fuzz::BackendKind kind) {
  fuzz::ExecutorConfig config;
  config.backend.kind = kind;
  config.backend.session.framing = session::framing_for_project(kProject);
  config.backend.exec_timeout_ms = kBenchTimeoutMs;
  if (kind != fuzz::BackendKind::kInProcess) {
    config.backend.target_cmd = {ICSFUZZ_SHIM_PATH, "--project", kProject,
                                 "--tcp"};
  }
  return config;
}

struct ArmResult {
  double seconds = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t messages = 0;
};

std::uint64_t fold(std::uint64_t checksum, const fuzz::ExecResult& result) {
  checksum = checksum * 0x100000001B3ULL ^
             (result.trace_hash + result.trace_edges +
              (result.new_coverage ? 1 : 0) + result.faults.size());
  for (const std::uint32_t state : result.session_states) {
    checksum = checksum * 0x100000001B3ULL ^ state;
  }
  return checksum;
}

ArmResult run_arm(fuzz::Executor& executor, ProtocolTarget& target,
                  const std::vector<Bytes>& streams, std::size_t execs) {
  fuzz::ExecResult result;
  ArmResult arm;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < execs; ++i) {
    executor.run_into(target, streams[i % streams.size()], result);
    arm.checksum = fold(arm.checksum, result);
    arm.messages += result.session_messages;
  }
  arm.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return arm;
}

}  // namespace

int main() {
  const std::size_t execs = static_cast<std::size_t>(
      bench::env_u64("ICSFUZZ_BENCH_SESSION_EXECS", 4000));
  const std::vector<Bytes> streams = make_streams();

  const auto factory = proto::target_factory(kProject);
  const std::unique_ptr<ProtocolTarget> placeholder = factory();
  const std::unique_ptr<ProtocolTarget> inproc_target = factory();

  telem::Telemetry tcp_hub;
  fuzz::ExecutorConfig tcp_config = session_config(fuzz::BackendKind::kTcp);
  tcp_config.telemetry = telem::Sink(&tcp_hub, 0);
  fuzz::Executor tcp_executor(tcp_config);
  fuzz::Executor inproc_executor(
      session_config(fuzz::BackendKind::kInProcess));

  // Warm-up: spawn the session server, converge buffer capacities,
  // saturate the virgin maps so both arms measure the steady state.
  run_arm(tcp_executor, *placeholder, streams, 128);
  run_arm(inproc_executor, *inproc_target, streams, 128);

  const auto full_scans = [&] {
    return tcp_hub.snapshot().counter(telem::Counter::kOopAdoptFullScans);
  };
  const std::uint64_t full_scans_before = full_scans();
  const ArmResult tcp = run_arm(tcp_executor, *placeholder, streams, execs);
  const std::uint64_t full_scan_count = full_scans() - full_scans_before;
  const std::uint64_t restarts =
      tcp_executor.backend().target_process()->tallies().restarts;
  const ArmResult inproc =
      run_arm(inproc_executor, *inproc_target, streams, execs);

  const bool matches = tcp.checksum == inproc.checksum &&
                       tcp.messages == inproc.messages;
  const std::size_t states_tcp = tcp_executor.session_state_count();
  const std::size_t states_inproc = inproc_executor.session_state_count();
  const double tcp_rate =
      tcp.seconds > 0.0 ? static_cast<double>(execs) / tcp.seconds : 0.0;
  const double inproc_rate =
      inproc.seconds > 0.0 ? static_cast<double>(execs) / inproc.seconds
                           : 0.0;
  const double message_rate =
      tcp.seconds > 0.0 ? static_cast<double>(tcp.messages) / tcp.seconds
                        : 0.0;

  std::printf("{\n  \"bench\": \"session\",\n");
  std::printf("  \"execs_per_arm\": %zu,\n", execs);
  std::printf("  \"session_execs_per_sec\": %.0f,\n", tcp_rate);
  std::printf("  \"session_messages_per_sec\": %.0f,\n", message_rate);
  std::printf("  \"in_process_session_execs_per_sec\": %.0f,\n", inproc_rate);
  std::printf("  \"slowdown_vs_in_process\": %.2f,\n",
              tcp_rate > 0.0 ? inproc_rate / tcp_rate : 0.0);
  std::printf("  \"matches_in_process\": %s,\n", matches ? "true" : "false");
  std::printf("  \"session_states_reached\": %zu,\n", states_tcp);
  std::printf("  \"session_states_match\": %s,\n",
              states_tcp == states_inproc ? "true" : "false");
  std::printf("  \"session_full_scan_pct\": %.3f,\n",
              execs > 0 ? 100.0 * static_cast<double>(full_scan_count) /
                              static_cast<double>(execs)
                        : 0.0);
  std::printf("  \"session_server_restarts\": %llu,\n",
              static_cast<unsigned long long>(restarts));
  std::printf("  \"messages_per_session\": %.2f,\n",
              execs > 0 ? static_cast<double>(tcp.messages) /
                              static_cast<double>(execs)
                        : 0.0);
  std::printf("  \"checksum\": %llu\n}\n",
              static_cast<unsigned long long>(tcp.checksum & 0xFFFF));
  return matches && states_tcp > 0 && states_tcp == states_inproc ? 0 : 1;
}
