// OutOfProcessExecutor — runs packets against an external fork-server
// target (the shim binary, or any program speaking exec_protocol.hpp) and
// exposes the raw observables the in-process Executor turns into an
// ExecResult: the shared-memory coverage words, the aux block (events,
// soft-sanitizer faults, response bytes), and the transport status.
//
// The ROADMAP's "real binaries under fork-server execution" unlock: the
// same sparse dirty-word + SIMD analysis of PRs 3-4 consumes the shm map
// via CoverageMap::adopt_external, so feedback semantics are bit-identical
// to in-process execution — the differential oracle test_exec_oop.cpp
// asserts exactly that.
//
// Two execution modes behind one run() call:
//   * fork-per-exec — one fork() per packet (control word 0).
//   * persistent    — `persistent_budget` > 1 and the server advertises
//     kCapPersistent: packets travel through shm test-case slots into a
//     long-lived child that loops K executions per process, which removes
//     the per-exec fork() and recovers an order of magnitude of
//     throughput. run_batch() additionally pipelines up to kNumSlots
//     requests so the round-trip stall disappears from replay-style
//     workloads. A server without the capability (an injected binary that
//     does not cooperate) keeps the executor on fork-per-exec —
//     persistent_active() reports what actually runs.
//
// Robustness: the server's lifecycle is a TargetProcess. A lost fork
// server (crashed, killed, never handshaken) is respawned transparently
// with a fresh shm segment and the packet retried under the RetryPolicy;
// an *orderly* server exit (status 0 — e.g. periodic retirement) is
// respawned the same way but never booked as a lost server; a target that
// cannot be started at all degrades every run to kServerLost without
// throwing, so campaigns report the failure instead of dying.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/fork_server.hpp"
#include "exec_oop/shm_segment.hpp"
#include "exec_oop/target_process.hpp"
#include "supervise/resource_jail.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::oop {

/// Semantic outcome of one out-of-process execution.
enum class ExecStatus : std::uint8_t {
  kOk,          ///< child ran to completion (aux block valid)
  kCrash,       ///< child died on a signal / abnormal exit mid-execution
  kHang,        ///< wall-clock deadline expired; child was SIGKILLed
  kOom,         ///< resource jail fired: allocation failure under RLIMIT_AS
  kServerLost,  ///< target server unreachable even after a respawn
};

std::string to_string(ExecStatus status);

struct OopExecutorConfig {
  /// argv of the fork-server target; argv[0] resolved through PATH.
  std::vector<std::string> target_cmd;
  /// Wall-clock deadline per execution (the safety net behind the
  /// deterministic event budget, which ships in the aux block).
  int exec_timeout_ms = 1000;
  /// Deadline for the spawn handshake.
  int handshake_timeout_ms = 5000;
  /// Executions per persistent child (the ICSFUZZ_LOOP budget K). <= 1
  /// keeps fork-per-exec; larger values request persistent mode, which
  /// engages when the server also advertises the capability.
  std::uint32_t persistent_budget = 0;
  /// Lost-server respawn/retry policy (defaults preserve the historical
  /// respawn-once behavior).
  RetryPolicy retry;
  /// Resource jail applied inside every forked execution child (exported
  /// to the shim via environment). Disabled by default.
  supervise::ResourceJail jail;
  /// Path to libicsfuzz-preload.so. Non-empty: the target is spawned under
  /// the instrumentation-injection runtime (LD_PRELOAD + fork mode env), so
  /// a stock binary that never linked icsfuzz serves the fork-server
  /// protocol — src/inject/inject_protocol.hpp documents the contract.
  /// Empty (default): the target must speak the protocol natively (shim).
  std::string preload;
};

class OutOfProcessExecutor {
 public:
  struct Outcome {
    ExecStatus status = ExecStatus::kServerLost;
    /// Signal that terminated the child (kCrash/kHang), 0 otherwise.
    int term_signal = 0;
    /// Child exit code (kCrash with a nonzero abnormal exit), 0 otherwise.
    int exit_code = 0;
    /// The execution ran inside the persistent child.
    bool persistent = false;
    /// 1-based iteration "N of K" within the serving child (persistent).
    std::uint32_t iteration = 0;
    /// The serving child was recycled after this execution (persistent:
    /// budget exhaustion, crash, or hang — see status for which).
    bool child_recycled = false;
    /// Aux-block observables; valid (and exact) only for kOk.
    AuxResult aux;
  };

  explicit OutOfProcessExecutor(OopExecutorConfig config);

  OutOfProcessExecutor(const OutOfProcessExecutor&) = delete;
  OutOfProcessExecutor& operator=(const OutOfProcessExecutor&) = delete;

  /// Ensures the fork server is up (spawning it on first use / after a
  /// loss). False when the target cannot be started; error() explains.
  bool ensure_started();

  /// Runs one packet, retrying across a server respawn. The returned
  /// reference points at internal scratch refilled every run (vector
  /// capacities reused), valid until the next call.
  const Outcome& run(ByteSpan packet);

  /// Pipelined batch dispatch (replay/bench/distill workloads — the
  /// adaptive fuzzing loop stays per-exec because generation depends on
  /// each result). Up to kNumSlots requests ride the pipe concurrently in
  /// persistent mode; outcomes are delivered strictly in packet order,
  /// each valid only for the duration of its callback (the scratch is
  /// reused). Falls back to sequential run() calls when persistent mode
  /// is inactive. Returns the number of packets executed (always
  /// packets.size(); failures surface per-outcome, not as early exits).
  std::size_t run_batch(
      const std::vector<Bytes>& packets,
      const std::function<void(std::size_t, const Outcome&)>& on_outcome);

  /// The shm coverage words the last outcome's execution produced
  /// (kMapWords uint64s), ready for CoverageMap::adopt_external — the
  /// fork-per-exec map region or the persistent slot that served the
  /// execution. Null until the server started. During run_batch this
  /// advances with each callback.
  [[nodiscard]] const std::uint64_t* map_words() const {
    return segment().valid()
               ? reinterpret_cast<const std::uint64_t*>(segment().data() +
                                                        map_offset_)
               : nullptr;
  }

  /// Persistent mode in effect: requested by the config (budget > 1) AND
  /// advertised by the serving target. False before the first spawn.
  [[nodiscard]] bool persistent_active() const {
    return config_.persistent_budget > 1 && server_.persistent_capable();
  }

  /// Successful respawns of a server that had previously come up (a
  /// target that never starts keeps this at 0) — 0 on a healthy campaign;
  /// the fault-injection suite watches this climb. Orderly exits count
  /// here too (the respawn is real) but never in the lost-server
  /// accounting.
  [[nodiscard]] std::uint64_t server_restarts() const {
    return process_.tallies().restarts;
  }

  /// Packets that needed a second attempt after the first one lost the
  /// server (counted whether or not the retry then succeeded).
  [[nodiscard]] std::uint64_t run_retries() const {
    return process_.tallies().retries;
  }

  /// Orderly server exits (EOF + exit status 0) absorbed by a respawn —
  /// kept apart from lost servers so `oop_server_lost` telemetry does not
  /// overcount periodic retirement.
  [[nodiscard]] std::uint64_t orderly_server_exits() const {
    return process_.tallies().orderly_exits;
  }

  /// Persistent children recycled so far (budget exhaustion, crash or
  /// hang — each one costs the next request a fork).
  [[nodiscard]] std::uint64_t child_recycles() const {
    return child_recycles_;
  }

  /// Executions the resource jail terminated (classified kOom).
  [[nodiscard]] std::uint64_t oom_kills() const { return oom_kills_; }

  [[nodiscard]] bool server_running() const { return process_.running(); }
  [[nodiscard]] const std::string& last_error() const { return error_; }
  [[nodiscard]] const ShmSegment& segment() const {
    return process_.segment();
  }
  [[nodiscard]] const OopExecutorConfig& config() const { return config_; }
  [[nodiscard]] const ForkServer& server() const { return server_; }
  [[nodiscard]] const TargetProcess& process() const { return process_; }

 private:
  /// Maps a transport outcome + the aux block at `aux_offset` onto the
  /// semantic Outcome, and points map_words() at `map_offset`.
  void classify(const ForkServer::RunOutcome& raw, std::size_t map_offset,
                std::size_t aux_offset, Outcome& out);

  /// Handles a gone server (orderly vs lost) before a respawn attempt.
  void note_server_gone(ForkServer::RunOutcome::Kind kind);

  /// Zeroed-scratch outcome for the both-attempts-failed path.
  void fail_outcome(Outcome& out);

  OopExecutorConfig config_;
  TargetProcess process_;
  ForkServer server_{process_};
  Outcome outcome_;
  std::string error_;
  std::size_t map_offset_ = 0;
  std::uint64_t child_recycles_ = 0;
  std::uint64_t oom_kills_ = 0;
};

/// The classification rule for a target that terminated, shared by every
/// out-of-process transport: a signal is kCrash (term_signal set), exit
/// supervise::kOomExitCode is kOom (the resource jail fired), exit 0 with
/// `completed` (the aux block / session finished) is kOk, and any other
/// exit — a nonzero code, or a clean exit that never completed — is kCrash
/// (exit_code set). Fills status, term_signal and exit_code of `out`.
void classify_termination(int wstatus, bool completed,
                          OutOfProcessExecutor::Outcome& out);

}  // namespace icsfuzz::oop
