// TargetProcess — the one lifecycle of an out-of-process target server,
// shared by every transport that drives one: the fork-server client
// (OutOfProcessExecutor, oop_executor.hpp) and the TCP session backend
// (session/tcp_backend.cpp). Each transport keeps only its own wire
// protocol; everything about the process lives here:
//
//   * spawn — argv[0] resolved through PATH and argv/envp materialized
//     BEFORE fork (the post-fork child makes async-signal-safe calls only:
//     setpgid, fcntl/dup2 of the protocol pipes onto kCtlFd/kStFd, execve).
//     The server leads its own process group, so a group kill also reaps
//     any execution child it forked.
//   * environment — a fresh named kSegmentBytesV2 shm segment per spawn
//     (ICSFUZZ_OOP_SHM + size), the resource jail and the preload runtime,
//     each overriding an inherited entry of the same name.
//   * hello — one 8-byte [u32 magic][u32 word] read under the handshake
//     deadline: [kHelloMagicV2][caps] from a fork server,
//     [kTcpHelloMagic][port] from a TCP session server.
//   * death — a group SIGKILL plus reap, or a reap of a server that died on
//     its own whose wait status stays readable so the transport can
//     classify it.
//   * respawn under the RetryPolicy's crash-loop breaker, and the
//     restart / retry / orderly-exit tallies the telemetry layer mirrors.
//
// The settings of all of it, and of the transports on top, are one
// TargetConfig.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "exec_oop/shm_segment.hpp"
#include "supervise/resource_jail.hpp"

namespace icsfuzz::oop {

/// Extra attempts a packet gets after its first one loses the server.
inline constexpr int kMaxRetries = 1;
/// Deadline for a spawned server's hello.
inline constexpr int kHandshakeTimeoutMs = 5000;

/// Respawn policy for a lost target server: one retry per packet
/// (kMaxRetries), respawned at once.
struct RetryPolicy {
  /// Lifetime respawn budget — the crash-loop breaker. Once a server that
  /// had come up has been respawned this many times, further losses fail
  /// fast as kServerLost instead of forking a doomed target forever.
  /// Negative = unlimited.
  int max_respawns = -1;
};

/// Every setting of an out-of-process target, declared once. The
/// fork-server client (OutOfProcessExecutor) and the kTcp session backend
/// take it and hand it to the TargetProcess they drive;
/// fuzz::ExecBackendConfig extends it.
struct TargetConfig {
  /// argv of the target; argv[0] resolved through PATH (typically
  /// {"icsfuzz-shim-target", "--project", <name>}).
  std::vector<std::string> target_cmd;
  /// Wall-clock deadline per execution (a SIGKILLed hang; the
  /// deterministic event budget, shipped in the aux block, applies on
  /// top). <= 0 disables it: executions may then block indefinitely.
  int exec_timeout_ms = 1000;
  /// Executions per fork-server child (the ICSFUZZ_LOOP budget K). <= 1 is
  /// fork-per-exec; larger values request persistent mode, which engages
  /// when the server also advertises the capability.
  std::uint32_t persistent_budget = 0;
  RetryPolicy retry;
  /// Resource jail, exported to the server through the environment:
  /// applied inside every forked execution child of a fork server, and to
  /// the whole serving process of a kTcp session server. Disabled by
  /// default.
  supervise::ResourceJail jail;
  /// Path to libicsfuzz-preload.so. Non-empty: the target is spawned under
  /// the instrumentation-injection runtime (LD_PRELOAD + inject mode env),
  /// so a stock binary that never linked icsfuzz serves the protocol —
  /// src/inject/inject_protocol.hpp documents the contract. Empty
  /// (default): the target must speak the protocol natively (the shim
  /// does).
  std::string preload;
};

class TargetProcess {
 public:
  /// Lifetime tallies; telemetry mirrors their per-execution deltas.
  struct Tallies {
    std::uint64_t restarts = 0;  ///< respawns of a server that had come up
    std::uint64_t retries = 0;   ///< executions retried after a lost server
    std::uint64_t orderly_exits = 0;  ///< servers that exited 0 on their own
  };

  /// A server spawned from `config` must open its hello with
  /// `hello_magic`; `inject_mode` is its ICSFUZZ_INJECT_MODE under the
  /// preload runtime (inject_protocol.hpp).
  TargetProcess(TargetConfig config, std::uint32_t hello_magic,
                const char* inject_mode);
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
  /// Successful spawns so far: a transport keeps per-server state (request
  /// numbering) keyed on it, since every spawn starts a fresh segment.
  [[nodiscard]] std::uint64_t spawns() const { return spawns_; }
  /// Whether a wait on this server may spin before blocking
  /// (oop::affinity_allows_spin, evaluated at the last spawn).
  [[nodiscard]] bool spin_waits() const { return spin_waits_; }
  /// Context switches (voluntary + involuntary) of the running server so
  /// far, from /proc; 0 when no server runs or /proc is unavailable. How
  /// often the server itself woke up — a transport that keeps it off the
  /// per-exec path shows a count that grows per recycle, not per exec.
  [[nodiscard]] std::uint64_t context_switches() const;
  [[nodiscard]] ShmSegment& segment() { return segment_; }
  [[nodiscard]] const ShmSegment& segment() const { return segment_; }
  [[nodiscard]] const Tallies& tallies() const { return tallies_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const TargetConfig& config() const { return config_; }

 private:
  bool spawn();
  void close_pipes();

  TargetConfig config_;
  std::uint32_t hello_magic_;
  const char* inject_mode_;
  ShmSegment segment_;
  /// Atomic for kill(): a watchdog thread reads it while the owner respawns.
  std::atomic<pid_t> pid_{-1};
  int ctl_fd_ = -1;  ///< write side: request stream / shutdown EOF
  int st_fd_ = -1;   ///< read side: hello / reply stream
  std::uint32_t hello_word_ = 0;
  int wait_status_ = 0;
  std::uint64_t spawns_ = 0;
  bool spin_waits_ = false;
  bool exited_ = false;
  Tallies tallies_;
  /// A spawn has succeeded at least once (gates restart counting).
  bool ever_started_ = false;
  std::string error_;
};

}  // namespace icsfuzz::oop
