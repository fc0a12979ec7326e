// TargetProcess — the one lifecycle of an out-of-process target server,
// shared by every transport that drives one: the fork-server client
// (fork_server.hpp, under OutOfProcessExecutor) and the TCP session backend
// (session/tcp_backend.cpp). Each transport keeps only its own wire
// protocol; everything about the process lives here:
//
//   * spawn — argv[0] resolved through PATH and argv/envp materialized
//     BEFORE fork (the post-fork child makes async-signal-safe calls only:
//     setpgid, fcntl/dup2 of the protocol pipes onto kCtlFd/kStFd, execve).
//     The server leads its own process group, so a group kill also reaps
//     any execution child it forked.
//   * environment — a fresh named shm segment per spawn (ICSFUZZ_OOP_SHM +
//     size), the resource jail and the preload runtime, each overriding an
//     inherited entry of the same name.
//   * hello — one 8-byte [u32 magic][u32 word] read under the handshake
//     deadline: [kHelloMagicV2][caps] from a fork server,
//     [kTcpHelloMagic][port] from a TCP session server.
//   * death — a group SIGKILL plus reap, or a reap of a server that died on
//     its own whose wait status stays readable so the transport can
//     classify it.
//   * respawn under RetryPolicy — the crash-loop breaker, exponential
//     backoff with deterministic jitter — and the restart / retry /
//     orderly-exit tallies the telemetry layer mirrors.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "exec_oop/shm_segment.hpp"
#include "supervise/resource_jail.hpp"

namespace icsfuzz::oop {

/// Respawn/retry policy for a lost target server. The defaults reproduce the
/// historical hard-coded behavior exactly: one retry per packet, unlimited
/// respawns, no backoff — so existing campaigns and the differential
/// oracles are bit-identical unless a supervisor opts in.
struct RetryPolicy {
  /// Extra attempts per packet after the first one loses the server.
  int max_retries = 1;
  /// Lifetime respawn budget — the crash-loop breaker. Once a server that
  /// had come up has been respawned this many times, further losses fail
  /// fast as kServerLost instead of forking a doomed target forever.
  /// Negative = unlimited.
  int max_respawns = -1;
  /// Backoff before the Nth consecutive respawn (doubling, capped at
  /// backoff_max_ms). 0 disables sleeping entirely.
  std::uint32_t backoff_initial_ms = 0;
  std::uint32_t backoff_max_ms = 2000;
  /// Deterministic jitter: up to this percentage is added on top of the
  /// backoff delay, derived by hashing the respawn count (no RNG stream —
  /// the fuzzing trajectory never depends on it).
  std::uint32_t jitter_pct = 0;
};

class TargetProcess {
 public:
  struct Config {
    /// argv of the target; argv[0] resolved through PATH.
    std::vector<std::string> argv;
    /// Size of the shm segment created for every spawn.
    std::size_t segment_bytes = 0;
    /// First word of the hello the server must send.
    std::uint32_t hello_magic = 0;
    /// ICSFUZZ_INJECT_MODE for the preload runtime (inject_protocol.hpp).
    const char* inject_mode = "fork";
    /// Path to libicsfuzz-preload.so; empty spawns the target as is.
    std::string preload;
    /// Resource jail, exported to the server through the environment.
    supervise::ResourceJail jail;
    RetryPolicy retry;
    /// Deadline for the hello.
    int handshake_timeout_ms = 5000;
  };

  /// Lifetime tallies; telemetry mirrors their per-execution deltas.
  struct Tallies {
    std::uint64_t restarts = 0;  ///< respawns of a server that had come up
    std::uint64_t retries = 0;   ///< executions retried after a lost server
    std::uint64_t orderly_exits = 0;  ///< servers that exited 0 on their own
  };

  explicit TargetProcess(Config config);
  ~TargetProcess();

  TargetProcess(const TargetProcess&) = delete;
  TargetProcess& operator=(const TargetProcess&) = delete;

  /// Ensures the server is up: spawns it on first use, respawns it after a
  /// loss under the RetryPolicy. False when it cannot be started (or the
  /// crash-loop budget is spent); error() explains.
  bool ensure_started();

  /// Non-blocking: true once the server has exited on its own — it is then
  /// reaped, its pipes are closed and wait_status() holds how it ended.
  bool try_reap();
  /// try_reap(), polled for up to `timeout_ms` (a pipe EOF can race the
  /// exit status by a hair).
  bool reap_within(int timeout_ms);

  /// Closes the pipes, SIGKILLs the process group and reaps the server.
  /// Idempotent; ensure_started() spawns a fresh one afterwards.
  void stop();

  /// Out-of-band group SIGKILL for a watchdog on another thread. Never
  /// reaps: the owner notices the death through its normal path.
  void kill() const;

  /// The server answered: a crash loop, if any, is over (resets backoff).
  void note_answered() { consecutive_respawns_ = 0; }
  void note_retry() { ++tallies_.retries; }

  [[nodiscard]] bool running() const { return pid() > 0; }
  [[nodiscard]] pid_t pid() const {
    return pid_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int ctl_fd() const { return ctl_fd_; }
  [[nodiscard]] int st_fd() const { return st_fd_; }
  /// The hello's second word (caps or port); 0 while no server runs.
  [[nodiscard]] std::uint32_t hello_word() const { return hello_word_; }
  /// How the server that try_reap()/reap_within() reaped ended.
  [[nodiscard]] int wait_status() const { return wait_status_; }
  [[nodiscard]] ShmSegment& segment() { return segment_; }
  [[nodiscard]] const ShmSegment& segment() const { return segment_; }
  [[nodiscard]] const Tallies& tallies() const { return tallies_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  bool spawn();
  void close_pipes();

  Config config_;
  ShmSegment segment_;
  /// Atomic for kill(): a watchdog thread reads it while the owner respawns.
  std::atomic<pid_t> pid_{-1};
  int ctl_fd_ = -1;  ///< write side: request stream / shutdown EOF
  int st_fd_ = -1;   ///< read side: hello / reply stream
  std::uint32_t hello_word_ = 0;
  int wait_status_ = 0;
  bool exited_ = false;
  Tallies tallies_;
  /// Respawns since the server last answered — drives the backoff.
  std::uint32_t consecutive_respawns_ = 0;
  /// A spawn has succeeded at least once (gates restart counting).
  bool ever_started_ = false;
  std::string error_;
};

}  // namespace icsfuzz::oop
