// ForkServer — fuzzer-side half of the fork-server protocol
// (exec_protocol.hpp): every execution is a post() into a slot and an
// await() of its record in the segment's handoff block.
//
// One spawn pays the exec + dynamic-link cost once. After that an
// execution is one futex round trip between this client and a child the
// server forked, with the server process asleep; the child serves K
// executions (the budget) before the next request pays a fork. K = 1 is
// fork-per-exec. That is what makes out-of-process fuzzing of real
// binaries viable at thousands to tens of thousands of executions per
// second.
//
// The server process itself — spawn, hello, kill, reap, respawn — belongs
// to a TargetProcess; this class numbers executions per server, posts
// requests and reads results. The hello's capability word says whether
// the server honours K > 1 (persistent_capable()); without it every child
// gets K = 1.
//
// Failure surface (all reported, never thrown — the campaign must outlive
// a dying target):
//   * per-exec wall-clock hang -> this client's wait hits the deadline and
//                                 asks the server to kill the child. The
//                                 server owns the pid (no recycled-pid
//                                 hazard); the run reports kTimeout
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
  /// `budget` is the executions per child (K) asked of a server that
  /// honours K > 1; 0 counts as 1. `timeout_ms` is each execution's
  /// wall-clock deadline (<= 0: none).
  ForkServer(TargetProcess& process, std::uint32_t budget, int timeout_ms)
      : process_(process),
        budget_(budget > 1 ? budget : 1),
        timeout_ms_(timeout_ms) {}

  /// One execution's transport-level outcome (the semantic mapping onto
  /// crash/hang/ok lives in OutOfProcessExecutor, which also reads the
  /// slot's aux block).
  struct RunOutcome {
    enum class Kind : std::uint8_t {
      kCompleted,     ///< the child's execution ended; wstatus says how
      kTimeout,       ///< deadline hit; child was SIGKILLed
      kServerExited,  ///< server exited 0 in an orderly way (respawn, but
                      ///< do not count a lost server)
      kServerLost,    ///< the fork server itself is gone mid-run
    };
    Kind kind = Kind::kServerLost;
    /// The serving child's raw wait status when it died on the execution
    /// (or a stock child exited after it); 0 when the child lives on.
    int wstatus = 0;
    /// The slot holding the execution's map and aux block.
    std::uint32_t slot = 0;
    /// 1-based iteration "N of K" within the serving child.
    std::uint32_t iteration = 0;
    /// The serving child is gone after this execution (budget exhausted,
    /// crash or hang).
    bool recycled = false;
  };

  /// Queues `packet` as the next request, to run in slot `slot`, without
  /// waiting for its result. At most kNumSlots may be in flight, each in
  /// its own slot; results come back strictly in order through await(). A
  /// packet over kSlotPacketBytes travels alone, on the control pipe: post
  /// returns false (nothing queued) for it while other requests are in
  /// flight, and for any packet while it is. Requires a running server.
  bool post(ByteSpan packet, std::uint32_t slot);

  /// Waits for the oldest posted request's result, its deadline counted
  /// from this call. Asks the server for a child when none lives, and for
  /// a kill when the deadline passes.
  RunOutcome await();

  /// The server advertised that it honours K > 1 in its hello.
  [[nodiscard]] bool persistent_capable() const {
    return (process_.hello_word() & kCapPersistent) != 0;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  /// Restarts execution and request numbering when the server respawned.
  void sync_server();

  /// The budget the server's children run with.
  [[nodiscard]] std::uint32_t child_budget() const {
    return persistent_capable() ? budget_ : 1;
  }

  /// Writes one request (and its packet); classifies the server on failure.
  bool write_request(const Request& request, ByteSpan packet,
                     int io_deadline_ms);

  /// Reads the [wstatus] reply to kKill; classifies the server on failure.
  bool read_reply(std::int32_t& wstatus, int io_deadline_ms);

  /// EOF/EPIPE on a pipe: decides kServerExited (reaped, exit status 0)
  /// vs kServerLost, updating last_failure_.
  RunOutcome::Kind classify_server_gone();

  TargetProcess& process_;
  std::uint32_t budget_;
  int timeout_ms_;
  /// How the last failed request left the server (orderly vs lost).
  RunOutcome::Kind last_failure_ = RunOutcome::Kind::kServerLost;
  std::string error_;
  /// Per-server state, reset by sync_server() on every spawn.
  std::uint64_t spawn_seen_ = 0;
  std::uint64_t exec_index_ = 0;   ///< executions numbered on this server
  std::uint32_t posted_ = 0;       ///< requests posted
  std::uint32_t awaited_ = 0;      ///< results consumed
  /// The (even) child generation a kFork was last sent for; odd = none.
  std::uint32_t fork_sent_for_ = 1;
  /// The request whose packet rode its kFork (0: none yet), and whether
  /// that kFork reached the server.
  std::uint32_t piped_request_ = 0;
  bool piped_sent_ = false;
};

}  // namespace icsfuzz::oop
