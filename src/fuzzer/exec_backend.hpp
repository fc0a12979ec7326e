// ExecBackend — the single seam between the fuzzing engine and *how* a
// packet gets executed.
//
// The engine (Executor, Fuzzer, CampaignSupervisor, icsfuzz-distill) is
// written against this interface only; which process runs the target is a
// configuration choice, not a code path:
//
//   kInProcess   — the ProtocolTarget runs in this process under the
//                  thread-local trace arming (fastest; the default).
//   kForkPerExec — packets cross into a fork-server target through shm
//                  test-case slots, handed between client and child by
//                  futex words while the server sleeps; every execution
//                  gets a freshly forked child (budget K = 1: crash
//                  isolation for real binaries).
//   kPersistent  — the same transport with ICSFUZZ_LOOP-style persistent
//                  children: K executions per fork. A server whose hello
//                  lacks the persistent capability forks with K = 1;
//                  nothing else changes.
//   kTcp         — session streams against a loopback TCP session server
//                  (session/tcp_backend.hpp).
//
// Every out-of-process kind runs its server through one oop::TargetProcess
// and books telemetry through mirror_oop_telemetry: one supervision
// contract and one set of counters, whichever transport is in use.
//
// Contract: packets go in through submit() and come out, in order, through
// complete() — at most depth() in flight. complete() fills the observable
// fields of `result` (events, faults, response, truncation flags) and runs
// the map's trace begin/finalize cycle, returning the TraceSummary. The
// Executor that owns the map layers the campaign-lifetime semantics on top
// (hang budget, path recording, new_coverage/new_path flags) — identically
// across backends, which is what the in-process/out-of-process
// differential oracle (test_exec_oop.cpp) leans on. discard() retires the
// oldest packet instead, touching neither map nor result: the fuzzer's
// step loop submits generations speculatively and drops the ones that
// feedback made stale. The fork-server kinds keep oop::kNumSlots packets in
// flight; every other backend has depth 1 and runs a packet synchronously
// inside complete() (SyncExecBackend), so discarding it costs nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
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

/// The out-of-process settings (target command, deadline, persistent
/// budget, retry policy, jail, preload) are oop::TargetConfig's, read by
/// the out-of-process kinds only; the persistent budget applies under
/// kPersistent alone.
struct ExecBackendConfig : oop::TargetConfig {
  /// kPersistent children serve 1024 executions before they retire and the
  /// next request pays a fresh fork (kForkPerExec is K = 1).
  ExecBackendConfig() { persistent_budget = 1024; }

  BackendKind kind = BackendKind::kInProcess;
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

  /// How many packets may be in flight at once.
  [[nodiscard]] virtual std::size_t depth() const { return 1; }

  /// Puts `packet` in flight behind those already there (at most depth()).
  /// `target` and the packet bytes must stay valid until the packet's
  /// complete() or discard().
  virtual void submit(ProtocolTarget& target, ByteSpan packet) = 0;

  /// Executes the oldest in-flight packet: fills result.events/.faults/
  /// .response/.response_truncated (reusing vector capacity) and runs one
  /// trace cycle on `map`, returning its summary. Everything
  /// campaign-lifetime (hang budget, path set, new_* flags) is the
  /// caller's job.
  virtual cov::TraceSummary complete(cov::CoverageMap& map,
                                     ExecResult& result) = 0;

  /// Retires the oldest in-flight packet without an observable result:
  /// neither a map nor a result is touched. A packet already running is
  /// waited out, and its lifecycle (recycles, respawns) is booked as a
  /// speculative discard, never as a verdict.
  virtual void discard() = 0;

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

/// A depth-1 backend: submit() only remembers the packet, complete() runs
/// it synchronously through execute(), and discard() drops it unrun.
class SyncExecBackend : public ExecBackend {
 public:
  void submit(ProtocolTarget& target, ByteSpan packet) final {
    target_ = &target;
    packet_ = packet;
  }
  cov::TraceSummary complete(cov::CoverageMap& map,
                             ExecResult& result) final {
    return execute(*target_, packet_, map, result);
  }
  void discard() final {}

 protected:
  /// Runs one packet (see complete()).
  virtual cov::TraceSummary execute(ProtocolTarget& target, ByteSpan packet,
                                    cov::CoverageMap& map,
                                    ExecResult& result) = 0;

 private:
  ProtocolTarget* target_ = nullptr;
  ByteSpan packet_;
};

/// Builds the backend `config` describes. `telemetry` receives the
/// out-of-process restart / retry / hang / recycle observables (in-process
/// backends never touch it).
std::unique_ptr<ExecBackend> make_exec_backend(const ExecBackendConfig& config,
                                               telem::Sink telemetry);

/// Books one out-of-process execution into `sink`, identically for every
/// out-of-process backend: the lifecycle deltas between two TargetProcess
/// tallies (restarts with a fork-server-respawn event and its reason,
/// retries, orderly server exits), a persistent child's recycle, and the
/// outcome's hang / OOM / server-lost verdict with its journal event. A
/// `speculative` execution (ExecBackend::discard) books the lifecycle and
/// one oop_speculative_discards instead of any verdict. `packet` is hashed
/// only for a journal event.
void mirror_oop_telemetry(const telem::Sink& sink,
                          const oop::TargetProcess::Tallies& before,
                          const oop::TargetProcess::Tallies& after,
                          const oop::OutOfProcessExecutor::Outcome& outcome,
                          ByteSpan packet, int exec_timeout_ms,
                          const supervise::ResourceJail& jail,
                          bool speculative = false);

/// Adopts an out-of-process execution's trace into `map`, identically for
/// every out-of-process backend. It reads only the listed words
/// (CoverageMap::adopt_sparse) when `completed` says the result is this
/// execution's own (its outcome is kOk), the target published the
/// dirty-word list at `dirty_list` within the cap, and the map is not the
/// kDense oracle. Every other case scans the whole map at `words`
/// (adopt_external) and books one oop_adopt_full_scans; null `words`
/// adopts the empty trace.
void adopt_oop_trace(const telem::Sink& sink, cov::CoverageMap& map,
                     const std::uint64_t* words,
                     const std::uint8_t* dirty_list, bool completed);

/// The synthetic-fault sites and wording of one out-of-process transport:
/// a deadline kill (kHang) is `deadline_site` with "<execution> exceeded
/// the N ms <deadline> deadline", an unreachable server (kServerLost) is
/// `lost_site` with "<server> unreachable: <why>".
struct TransportFaults {
  const char* deadline_site;
  const char* execution;
  const char* deadline;
  const char* lost_site;
  const char* server;
};

/// Fills `result`'s events and faults from an out-of-process outcome,
/// identically for every out-of-process backend: the aux block's events
/// and fault reports, an oop-aux-faults-truncated report when they
/// overflowed the block, then the synthetic fault of a failed execution —
/// for kCrash / kOom the target's death (oop-child-oom when the resource
/// jail fired, oop-child-terminated with the signal or exit code
/// otherwise, so a target death buckets identically whichever transport
/// ran it), for kHang / kServerLost the transport's own faults, with
/// `last_error` saying why the server was lost.
void fill_outcome_faults(const oop::OutOfProcessExecutor::Outcome& outcome,
                         const TransportFaults& transport,
                         int exec_timeout_ms, std::string_view last_error,
                         ExecResult& result);

}  // namespace icsfuzz::fuzz
