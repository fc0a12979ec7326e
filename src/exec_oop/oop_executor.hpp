// OutOfProcessExecutor — the fuzzer-side client of the fork-server
// protocol (exec_protocol.hpp): runs packets against an external target
// (the shim binary, or any program speaking the protocol) and exposes the
// raw observables the in-process Executor turns into an ExecResult: the
// shared-memory coverage words, the aux block (events, soft-sanitizer
// faults, response bytes), and the transport status.
//
// The same sparse dirty-word + SIMD analysis as in-process execution
// consumes the shm map — adopted from the dirty-word list the child
// publishes next to its result, or by the full-map scan when there is none
// (fuzz::adopt_oop_trace) — so feedback semantics are bit-identical to
// in-process execution; the differential oracle test_exec_oop.cpp asserts
// exactly that.
//
// One spawn pays the exec + dynamic-link cost once. After that an
// execution is one futex round trip between this client and a child the
// server forked, with the server process asleep: submit() writes the packet
// into a shm slot and posts it through the handoff block; complete() waits
// for the oldest submitted packet's record. Up to kNumSlots packets are in
// flight at once, ring position i in slot i, numbered 1, 2, ... per server,
// so a caller that keeps the window full never waits out a round trip per
// execution — fuzz::Fuzzer's step loop does, speculating on generation and
// discarding on feedback (distill replays go through Executor::run_into,
// one execution at a time; only benches and tests pipeline through
// Executor::run_batch). run() is one submit() and its complete(). The
// child serves `persistent_budget` executions (K) when the server
// advertises kCapPersistent in its hello and K > 1 — persistent mode, an
// order of magnitude faster than a fork per packet — and one otherwise:
// fork-per-exec, the BackendKind::kForkPerExec default and what a stock
// injected binary always gets. persistent_active() reports which. A packet
// too large for a slot rides its fork request on the control pipe and runs
// alone in a K = 1 child, once everything before it has completed.
//
// The server process itself — spawn, hello, kill, reap, respawn under the
// RetryPolicy's crash-loop breaker — is a TargetProcess, and every setting
// is its TargetConfig. Failure surface (all reported, never thrown — the
// campaign must outlive a dying target):
//   * per-exec wall-clock hang -> the wait hits the deadline and asks the
//                                 server to kill the child (it owns the
//                                 pid: no recycled-pid hazard); kHang
//   * orderly server exit      -> EOF plus exit status 0 (e.g. periodic
//                                 retirement): respawned, never booked as
//                                 a lost server
//   * server death (EOF/EPIPE, -> respawned with a fresh shm segment and
//     a wedged pipe, or reaped    the packet retried (kMaxRetries)
//     mid-wait)
// Either way every request posted to the gone server is resubmitted to the
// new one, oldest first, each with its own retry; a result the server
// published before it went stays valid. A target that cannot be started at
// all degrades every run to kServerLost, so campaigns report the failure
// instead of dying.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec_oop/exec_protocol.hpp"
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

class OutOfProcessExecutor {
 public:
  struct Outcome {
    ExecStatus status = ExecStatus::kServerLost;
    /// Signal that terminated the child (kCrash/kHang), 0 otherwise.
    int term_signal = 0;
    /// Child exit code (kCrash with a nonzero abnormal exit), 0 otherwise.
    int exit_code = 0;
    /// Persistent mode was in effect (persistent_active()).
    bool persistent = false;
    /// 1-based iteration "N of K" within the serving child.
    std::uint32_t iteration = 0;
    /// The serving child was recycled after this execution (budget
    /// exhaustion — every execution at K = 1 — crash, or hang; see status
    /// for which).
    bool child_recycled = false;
    /// Aux-block observables; valid (and exact) only for kOk.
    AuxResult aux;
    /// The packet this outcome answers, as submitted.
    ByteSpan packet;
  };

  /// `config.persistent_budget` left at 0 runs fork-per-exec.
  explicit OutOfProcessExecutor(TargetConfig config);

  OutOfProcessExecutor(const OutOfProcessExecutor&) = delete;
  OutOfProcessExecutor& operator=(const OutOfProcessExecutor&) = delete;

  /// Ensures the fork server is up (spawning it on first use / after a
  /// loss). False when the target cannot be started; error() explains.
  bool ensure_started();

  /// Puts `packet` in flight behind the packets already there (at most
  /// kNumSlots at once). The bytes must stay valid until complete() has
  /// returned the packet's outcome.
  void submit(ByteSpan packet);

  /// Waits for the oldest in-flight packet's outcome, retrying it across a
  /// server respawn (kMaxRetries). The returned reference points at
  /// internal scratch refilled every call (vector capacities reused), valid
  /// until the next submit() or complete().
  const Outcome& complete();

  /// Runs one packet with nothing else in flight: submit() + complete().
  const Outcome& run(ByteSpan packet) {
    submit(packet);
    return complete();
  }

  /// Packets submitted and not yet completed.
  [[nodiscard]] std::size_t in_flight() const { return queued_; }

  /// The shm coverage words the last outcome's execution produced
  /// (kMapWords uint64s), ready for CoverageMap::adopt_external — the map
  /// of the slot that served the execution. Null until the server
  /// started. The next submit() may reuse that slot.
  [[nodiscard]] const std::uint64_t* map_words() const {
    return segment().valid()
               ? reinterpret_cast<const std::uint64_t*>(segment().data() +
                                                        map_offset_)
               : nullptr;
  }

  /// The dirty-word list region of the slot that served the last outcome
  /// (oop::dirty_list_load reads it; meaningful only for kOk). Null until
  /// the server started.
  [[nodiscard]] const std::uint8_t* dirty_list() const {
    return segment().valid()
               ? segment().data() + map_offset_ + kSlotDirtyListOffset
               : nullptr;
  }

  /// The server advertised in its hello that it honours K > 1.
  [[nodiscard]] bool persistent_capable() const {
    return (process_.hello_word() & kCapPersistent) != 0;
  }

  /// Persistent mode in effect: requested by the config (budget > 1) AND
  /// advertised by the serving target. False before the first spawn.
  [[nodiscard]] bool persistent_active() const {
    return config().persistent_budget > 1 && persistent_capable();
  }

  /// Successful respawns of a server that had previously come up (a
  /// target that never starts keeps this at 0) — 0 on a healthy campaign;
  /// the fault-injection suite watches this climb. Orderly exits count
  /// here too (the respawn is real) but never in the lost-server
  /// accounting.
  [[nodiscard]] std::uint64_t server_restarts() const {
    return process_.tallies().restarts;
  }

  /// Orderly server exits (EOF + exit status 0) absorbed by a respawn —
  /// kept apart from lost servers so `oop_server_lost` telemetry does not
  /// overcount periodic retirement.
  [[nodiscard]] std::uint64_t orderly_server_exits() const {
    return process_.tallies().orderly_exits;
  }

  /// Children recycled so far (budget exhaustion, crash or hang — each
  /// one costs the next request a fork; one per execution at K = 1).
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
  [[nodiscard]] const TargetConfig& config() const {
    return process_.config();
  }
  [[nodiscard]] const TargetProcess& process() const { return process_; }

 private:
  /// Posts the queued packets the current server has not been given,
  /// oldest first, as far as it accepts them; a packet too large for a
  /// slot waits until it is the oldest. Restarts the numbering first when
  /// the server was respawned: its segment is fresh.
  void pump();

  /// Waits for the oldest posted request's result, its deadline counted
  /// from this call, and classifies it into `out`. Asks the server for a
  /// child when none lives, and for a kill when the deadline passes. False
  /// when the server is gone without the result (server_gone()).
  bool await(Outcome& out);

  /// Writes one request (and its packet) on the control pipe under the
  /// I/O deadline. Null on success, else why it failed.
  const char* write_request(const Request& request, ByteSpan packet);

  /// The server is gone (or wedged): one verdict, orderly when it is
  /// reaped with exit status 0, lost otherwise (error_ says `why`). Stops
  /// it; every request posted to it is gone with it.
  void server_gone(const char* why);

  /// Zeroed-scratch outcome for the every-attempt-failed path.
  void fail_outcome(Outcome& out);

  /// The budget the server's children run with.
  [[nodiscard]] std::uint32_t child_budget() const {
    return persistent_active() ? config().persistent_budget : 1;
  }

  TargetProcess process_;
  Outcome outcome_;
  std::string error_;
  std::size_t map_offset_ = 0;
  std::uint64_t child_recycles_ = 0;
  std::uint64_t oom_kills_ = 0;
  /// The in-flight packets, oldest at head_; ring position i runs in shm
  /// slot i, so no two in-flight packets share a slot.
  std::array<ByteSpan, kNumSlots> queue_{};
  std::uint32_t head_ = 0;
  std::uint32_t queued_ = 0;
  /// Per-server request numbering, restarted by pump() on every spawn:
  /// requests posted and results consumed, so the oldest posted_ -
  /// awaited_ queued packets are the server's.
  std::uint64_t spawn_seen_ = 0;
  std::uint32_t posted_ = 0;
  std::uint32_t awaited_ = 0;
  /// The (even) child generation a kFork was last sent for; odd = none.
  std::uint32_t fork_sent_for_ = 1;
  /// The request whose packet rode its kFork (0: none yet), and why that
  /// kFork did not reach the server (null: it did).
  std::uint32_t piped_request_ = 0;
  const char* piped_error_ = nullptr;
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
