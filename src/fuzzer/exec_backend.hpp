// ExecBackend — the single seam between the fuzzing engine and *how* a
// packet gets executed.
//
// The engine (Executor, Fuzzer, ParallelCampaign, icsfuzz-distill) is
// written against this interface only; which process runs the target is a
// configuration choice, not a code path:
//
//   kInProcess   — the ProtocolTarget runs in this process under the
//                  thread-local trace arming (fastest; the default).
//   kForkPerExec — packets cross into a fork-server target; every
//                  execution is one fork() inside the server (crash
//                  isolation for real binaries).
//   kPersistent  — fork-server target with ICSFUZZ_LOOP-style persistent
//                  children: K executions per fork, packets through shm
//                  test-case slots, SIGSTOP/SIGCONT between iterations.
//                  A server whose hello lacks the persistent capability
//                  keeps this on fork-per-exec; nothing else changes.
//   kTcp         — session streams against a loopback TCP session server
//                  (session/tcp_backend.hpp).
//
// Every out-of-process kind runs its server through one oop::TargetProcess
// and books telemetry through mirror_oop_telemetry: one supervision
// contract and one set of counters, whichever transport is in use.
//
// Contract of execute(): fill the observable fields of `result` (events,
// faults, response, truncation flags) and run the map's trace
// begin/finalize cycle, returning the TraceSummary. The Executor that owns
// the map layers the campaign-lifetime semantics on top (hang budget,
// path recording, new_coverage/new_path flags) — identically across
// backends, which is what the in-process/out-of-process differential
// oracle (test_exec_oop.cpp) leans on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "exec_oop/oop_executor.hpp"
#include "protocols/protocol_target.hpp"
#include "sanitizer/fault.hpp"
#include "session/session_types.hpp"
#include "supervise/resource_jail.hpp"
#include "telemetry/telemetry.hpp"

namespace icsfuzz::fuzz {

struct ExecResult {
  /// The trace contained a bucketed edge never seen before in this
  /// campaign — the seed is "valuable" in the paper's sense.
  bool new_coverage = false;
  /// The whole-trace hash was never seen before — a new path.
  bool new_path = false;
  std::uint64_t trace_hash = 0;
  std::size_t trace_edges = 0;
  /// Instrumentation events consumed (deterministic time proxy).
  std::uint64_t events = 0;
  /// Faults raised during the execution (at most one real fault, possibly
  /// followed by a synthetic Hang entry).
  std::vector<san::FaultReport> faults;
  /// Response bytes the target produced (diagnostics; empty on fault).
  Bytes response;
  /// Out-of-process execution only: the response overflowed the shm aux
  /// block and `response` holds a clamped prefix (always false in-process
  /// — callers comparing the two modes must check it before trusting
  /// response equality).
  bool response_truncated = false;
  /// Session backends only: the hashed session-state chain, one entry per
  /// message (session/session_state.hpp). Empty for plain single-exchange
  /// executions.
  std::vector<std::uint32_t> session_states;
  /// Messages the session stream decomposed into (0 = not a session
  /// execution).
  std::uint32_t session_messages = 0;

  [[nodiscard]] bool crashed() const { return !faults.empty(); }
};

/// Which execution backend an Executor drives.
enum class BackendKind : std::uint8_t {
  kInProcess = 0,
  kForkPerExec,
  kPersistent,
  /// Session transport over a real loopback socket: packets are session
  /// streams driven message-by-message against an external
  /// `icsfuzz-shim-target --tcp` server (session/tcp_backend.hpp).
  /// Requires ExecBackendConfig::session.framing != kNone.
  kTcp,
};

std::string_view to_string(BackendKind kind);

struct ExecBackendConfig {
  BackendKind kind = BackendKind::kInProcess;
  /// Fork-server target command (argv; argv[0] resolved through PATH;
  /// typically {"icsfuzz-shim-target", "--project", <name>}). Required for
  /// the out-of-process kinds, ignored in-process.
  std::vector<std::string> target_cmd;
  /// Wall-clock deadline per out-of-process execution (a SIGKILLed hang;
  /// the deterministic hang_event_budget still applies on top, from the
  /// event count the child ships back). <= 0 disables the wall-clock
  /// deadline entirely — executions may then block indefinitely.
  int exec_timeout_ms = 1000;
  /// Deadline for the fork-server spawn handshake.
  int handshake_timeout_ms = 5000;
  /// kPersistent: executions per persistent child before it retires and
  /// the next request pays a fresh fork (the ICSFUZZ_LOOP budget K).
  std::uint32_t persistent_budget = 1024;
  /// Lost-server respawn/retry policy (out-of-process kinds only; the
  /// defaults reproduce the historical respawn-once behavior).
  oop::RetryPolicy retry;
  /// Resource jail (out-of-process kinds only; disabled by default):
  /// applied inside every forked execution child of a fork server, and to
  /// the whole serving process of a kTcp session server.
  supervise::ResourceJail jail;
  /// Path to libicsfuzz-preload.so (out-of-process kinds and kTcp).
  /// Non-empty: the target is spawned under the instrumentation-injection
  /// runtime, so a stock binary that never linked icsfuzz becomes the
  /// fork-server (or TCP session) target — src/inject/inject_protocol.hpp
  /// documents the contract. Empty (default): the target must speak the
  /// protocol natively (the shim does).
  std::string preload;
  /// Session-layer options. framing != kNone turns kInProcess into the
  /// in-process *session* backend (split the packet into framed messages,
  /// execute them as one stateful session) and is mandatory for kTcp; the
  /// two are each other's differential oracle — identical per-message byte
  /// streams must yield identical coverage (tests/test_session.cpp).
  session::SessionOptions session;
};

class ExecBackend {
 public:
  virtual ~ExecBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;

  /// Executes one packet: fills result.events/.faults/.response/
  /// .response_truncated (reusing vector capacity) and runs one trace
  /// cycle on `map`, returning its summary. Everything campaign-lifetime
  /// (hang budget, path set, new_* flags) is the caller's job.
  virtual cov::TraceSummary execute(ProtocolTarget& target, ByteSpan packet,
                                    cov::CoverageMap& map,
                                    ExecResult& result) = 0;

  /// Batch execution for replay-shaped workloads (bench, distill,
  /// trajectory replay): delivers one (index, summary, result) triple per
  /// packet, strictly in order, through `each`; `scratch` is reused for
  /// every delivery. The default implementation loops execute(); the
  /// persistent backend overrides it to pipeline requests across the shm
  /// slots.
  virtual void execute_batch(
      ProtocolTarget& target, const std::vector<Bytes>& packets,
      cov::CoverageMap& map, ExecResult& scratch,
      const std::function<void(std::size_t, const cov::TraceSummary&,
                               ExecResult&)>& each);

  /// The fork-server transport, when this backend has one (null
  /// in-process and for kTcp). Fault-injection tests and the OOP bench
  /// read recycle counts and transport errors through this.
  [[nodiscard]] virtual const oop::OutOfProcessExecutor* oop() const {
    return nullptr;
  }

  /// The target server process of any out-of-process backend (null
  /// in-process): the supervisor watchdog kills a wedged server through
  /// it, and its tallies count restarts and retries.
  [[nodiscard]] virtual const oop::TargetProcess* target_process() const {
    return nullptr;
  }

  /// The previous execution's per-message byte traffic, when this is a
  /// session backend running with SessionOptions::record_traffic (null
  /// otherwise). The differential-oracle tests compare the two session
  /// arms' traffic byte for byte through this.
  [[nodiscard]] virtual const session::SessionTraffic* traffic() const {
    return nullptr;
  }
};

/// Builds the backend `config` describes. `dense_reference` routes the
/// trace analysis through the retained dense full-map passes (tests /
/// benches); `telemetry` receives the out-of-process restart / retry /
/// hang / recycle observables (in-process backends never touch it).
std::unique_ptr<ExecBackend> make_exec_backend(const ExecBackendConfig& config,
                                               bool dense_reference,
                                               telem::Sink telemetry);

/// Books one out-of-process execution into `sink`, identically for every
/// out-of-process backend: the lifecycle deltas between two TargetProcess
/// tallies (restarts with a fork-server-respawn event and its reason,
/// retries, orderly server exits), a persistent child's recycle, and the
/// outcome's hang / OOM / server-lost verdict with its journal event.
/// `packet` is hashed only for a journal event.
void mirror_oop_telemetry(const telem::Sink& sink,
                          const oop::TargetProcess::Tallies& before,
                          const oop::TargetProcess::Tallies& after,
                          const oop::OutOfProcessExecutor::Outcome& outcome,
                          ByteSpan packet, int exec_timeout_ms,
                          const supervise::ResourceJail& jail);

/// The synthetic fault of an execution whose target died (kCrash / kOom):
/// oop-child-oom when the resource jail fired, oop-child-terminated with
/// the signal or exit code otherwise — one rule, so a target death buckets
/// identically whichever transport ran it.
san::FaultReport target_death_fault(
    const oop::OutOfProcessExecutor::Outcome& outcome);

}  // namespace icsfuzz::fuzz
