// ForkServer — fuzzer-side half of the fork-server protocol
// (exec_protocol.hpp): fork-per-exec requests over the AFL-style pipe pair,
// and the persistent handoff through the segment's handoff block.
//
// One spawn pays the exec + dynamic-link cost once; every execution after
// that is a single fork() inside the target — or, in persistent mode, one
// futex round trip between this client and a long-lived child, with the
// server process asleep — which is what makes out-of-process fuzzing of
// real binaries viable at tens of thousands of executions per second. The
// server process is the shim's request loop; the per-execution child is
// the shim's fork (or persistent loop body).
//
// The server process itself — spawn, hello, kill, reap, respawn — belongs
// to a TargetProcess; this class numbers executions per server, writes
// requests and reads results. The hello's capability word says whether
// the server offers persistent mode (persistent_capable()).
//
// Failure surface (all reported, never thrown — the campaign must outlive
// a dying target):
//   * per-exec wall-clock hang -> fork-per-exec: the server SIGKILLs its
//                                 own child at the deadline; persistent:
//                                 this client's wait hits the deadline and
//                                 asks the server to kill the child. The
//                                 server owns the pid either way (no
//                                 recycled-pid hazard); the run reports
//                                 kTimeout
//   * orderly server exit      -> EOF plus exit status 0 (the shim
//                                 retired after its final execution);
//                                 reported kServerExited so telemetry
//                                 never books it as a lost server
//   * server death (EOF/EPIPE, -> the run reports kServerLost; the owner
//     or reaped mid-wait)         (OutOfProcessExecutor) respawns
#pragma once

#include <cstdint>
#include <string>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/target_process.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::oop {

class ForkServer {
 public:
  /// `persistent_budget` is the executions per persistent child (K).
  ForkServer(TargetProcess& process, std::uint32_t persistent_budget)
      : process_(process), budget_(persistent_budget) {}

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
    /// The child's raw wait status (kCompleted / kTimeout); 0 for a
    /// persistent execution that completed.
    int wstatus = 0;
    /// The execution ran inside the persistent child, in slot `slot`.
    bool persistent = false;
    std::uint32_t slot = 0;
    /// 1-based iteration "N of K" within the serving child (persistent).
    std::uint32_t iteration = 0;
    /// The serving persistent child is gone after this execution (budget
    /// exhausted, crash or hang).
    bool recycled = false;
  };

  /// Runs `packet` in one forked child with a wall-clock deadline the
  /// server enforces on its own child. `timeout_ms` <= 0 disables the
  /// deadline end to end (the client then waits indefinitely; only pipe
  /// EOF catches a wedged server). Requires a running server.
  RunOutcome run(ByteSpan packet, int timeout_ms);

  /// Persistent mode: queues `packet` as the next request, to run in slot
  /// `slot`, without waiting for its result. At most kNumSlots may be in
  /// flight, each in its own slot; results come back strictly in order
  /// through await(). False (nothing queued) when the packet exceeds a
  /// slot's test-case buffer. Requires a running server.
  bool post(ByteSpan packet, std::uint32_t slot);

  /// Waits for the oldest posted request's result. `timeout_ms` is its
  /// deadline, counted from this call (<= 0: none). Asks the server for a
  /// child when none lives, and for a kill when the deadline passes.
  RunOutcome await(int timeout_ms);

  /// The server advertised the persistent capability in its hello.
  [[nodiscard]] bool persistent_capable() const {
    return (process_.hello_word() & kCapPersistent) != 0;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  /// Restarts execution and request numbering when the server respawned.
  void sync_server();

  /// Writes one request (and its packet); classifies the server on failure.
  bool write_request(const Request& request, ByteSpan packet,
                     int io_deadline_ms);

  /// Reads one [wstatus][flags] reply; classifies the server on failure.
  bool read_reply(std::uint32_t (&reply)[2], int io_deadline_ms);

  /// EOF/EPIPE on a pipe: decides kServerExited (reaped, exit status 0)
  /// vs kServerLost, updating last_failure_.
  RunOutcome::Kind classify_server_gone();

  TargetProcess& process_;
  std::uint32_t budget_;
  /// How the last failed request left the server (orderly vs lost).
  RunOutcome::Kind last_failure_ = RunOutcome::Kind::kServerLost;
  std::string error_;
  /// Per-server state, reset by sync_server() on every spawn.
  std::uint64_t spawn_seen_ = 0;
  std::uint64_t exec_index_ = 0;   ///< executions numbered on this server
  std::uint32_t posted_ = 0;       ///< persistent requests posted
  std::uint32_t awaited_ = 0;      ///< persistent results consumed
  /// The (even) child generation a kFork was last sent for; odd = none.
  std::uint32_t fork_sent_for_ = 1;
};

}  // namespace icsfuzz::oop
