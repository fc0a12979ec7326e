// ForkServer — fuzzer-side request/reply framing of the classic AFL
// two-pipe fork-server protocol (exec_protocol.hpp).
//
// One spawn pays the exec + dynamic-link cost once; every execution after
// that is a single fork() inside the target — or, in persistent mode, one
// SIGCONT/SIGSTOP round trip of a long-lived child — which is what makes
// out-of-process fuzzing of real binaries viable at tens of thousands of
// executions per second. The server process is the shim's request loop;
// the per-execution child is the shim's fork (or persistent loop body).
//
// The server process itself — spawn, hello, kill, reap, respawn — belongs
// to a TargetProcess; this class only writes requests and reads replies on
// its pipes. The hello's capability word says whether the server offers
// persistent mode (persistent_capable()).
//
// Failure surface (all reported, never thrown — the campaign must outlive
// a dying target):
//   * per-exec wall-clock hang -> the shim SIGKILLs its own child at the
//                                 deadline (it owns the pid — no recycled
//                                 -pid hazard) and the run reports
//                                 kTimeout
//   * orderly server exit      -> EOF plus exit status 0 (the shim
//                                 retired after its final execution);
//                                 reported kServerExited so telemetry
//                                 never books it as a lost server
//   * server death (EOF/EPIPE) -> the run reports kServerLost; the owner
//                                 (OutOfProcessExecutor) respawns
#pragma once

#include <cstdint>
#include <string>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/target_process.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::oop {

class ForkServer {
 public:
  explicit ForkServer(TargetProcess& process) : process_(process) {}

  /// One execution's transport-level outcome (the semantic mapping onto
  /// crash/hang/ok lives in OutOfProcessExecutor, which also reads the
  /// segment's aux block).
  struct RunOutcome {
    enum class Kind : std::uint8_t {
      kCompleted,     ///< the child's execution ended; wstatus says how
      kTimeout,       ///< deadline hit; child was SIGKILLed
      kServerExited,  ///< server exited 0 in an orderly way (respawn, but
                      ///< do not count a lost server)
      kServerLost,    ///< the fork server itself is gone mid-run
    };
    Kind kind = Kind::kServerLost;
    /// The child's raw wait status (kCompleted / kTimeout).
    int wstatus = 0;
    /// The execution ran inside the persistent child.
    bool persistent = false;
    /// 1-based iteration "N of K" within the serving child (persistent).
    std::uint32_t iteration = 0;
    /// The serving child was recycled after this execution, and why.
    RecycleReason recycled = RecycleReason::kNone;
  };

  /// Runs one execution with a wall-clock deadline, enforced by the shim
  /// on its own child: `control` 0 forks one child for `packet`; a
  /// persistent control word (encode_control) runs the packet already in
  /// that shm slot. `timeout_ms` <= 0 disables the deadline end to end
  /// (the client then waits indefinitely; only pipe EOF catches a wedged
  /// server). Requires a running server.
  RunOutcome run(std::uint32_t control, ByteSpan packet, int timeout_ms);

  /// Pipelined dispatch, persistent mode: queues one request without
  /// waiting for its reply (up to kNumSlots may be in flight; replies
  /// drain strictly in submission order through await_reply). False when
  /// the request could not be written — last_failure() says whether the
  /// server exited in an orderly way or was lost.
  bool submit(std::uint32_t control, int timeout_ms);

  /// Reads the next in-flight reply. `io_deadline_ms` bounds the wait
  /// (give it headroom for every exec still queued ahead); <= 0 waits
  /// indefinitely.
  RunOutcome await_reply(int io_deadline_ms);

  /// The server advertised the persistent capability in its hello.
  [[nodiscard]] bool persistent_capable() const {
    return (process_.hello_word() & kCapPersistent) != 0;
  }
  /// How the last failed submit/run left the server (orderly vs lost).
  [[nodiscard]] RunOutcome::Kind last_failure() const { return last_failure_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  /// Writes one request ([timeout][control][len][packet]); classifies the
  /// server on failure.
  bool write_request(std::uint32_t control, ByteSpan packet, int timeout_ms,
                     int io_deadline_ms);

  /// EOF/EPIPE on a pipe: decides kServerExited (reaped, exit status 0)
  /// vs kServerLost, updating last_failure_.
  RunOutcome::Kind classify_server_gone();

  TargetProcess& process_;
  RunOutcome::Kind last_failure_ = RunOutcome::Kind::kServerLost;
  std::string error_;
};

}  // namespace icsfuzz::oop
