#include "exec_oop/target_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "exec_oop/exec_protocol.hpp"
#include "inject/inject_protocol.hpp"

extern char** environ;

namespace icsfuzz::oop {

namespace {

/// A dead server must surface as EPIPE on the next write, not kill the
/// fuzzer with SIGPIPE. Installed once, process-wide, on first spawn —
/// the same disposition AFL-style frontends set up.
void ignore_sigpipe_once() {
  static const bool done = [] {
    struct sigaction action {};
    action.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &action, nullptr);
    return true;
  }();
  (void)done;
}

/// Resolves a bare command name through PATH *before* fork: the post-fork
/// child is restricted to async-signal-safe calls, which rules out
/// execvp's PATH walk (it may allocate). Returns the command unchanged
/// when it contains a slash or nothing on PATH matches (execve will then
/// fail and the child exits 127, surfacing as a handshake failure).
std::string resolve_executable(const std::string& command) {
  if (command.find('/') != std::string::npos) return command;
  const char* path = std::getenv("PATH");
  if (path == nullptr) return command;
  const std::string entries = path;
  std::size_t begin = 0;
  while (begin <= entries.size()) {
    const std::size_t end = entries.find(':', begin);
    const std::string dir = entries.substr(
        begin, end == std::string::npos ? std::string::npos : end - begin);
    if (!dir.empty()) {
      const std::string candidate = dir + "/" + command;
      if (::access(candidate.c_str(), X_OK) == 0) return candidate;
    }
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return command;
}

/// True when `entry` ("NAME=value") defines the same NAME as `other`.
bool same_env_name(const char* entry, const std::string& other) {
  const std::size_t eq = other.find('=');
  if (eq == std::string::npos) return false;
  return std::strncmp(entry, other.c_str(), eq + 1) == 0;
}

/// splitmix64 finalizer — the deterministic jitter hash (no RNG stream).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Backoff delay before the `consecutive`-th consecutive respawn
/// (1-based): initial * 2^(consecutive-1), capped, plus jitter.
std::uint32_t backoff_delay_ms(const RetryPolicy& policy,
                               std::uint32_t consecutive,
                               std::uint64_t jitter_key) {
  if (policy.backoff_initial_ms == 0 || consecutive == 0) return 0;
  std::uint64_t delay = policy.backoff_initial_ms;
  for (std::uint32_t i = 1; i < consecutive && delay < policy.backoff_max_ms;
       ++i) {
    delay *= 2;
  }
  delay = std::min<std::uint64_t>(delay, policy.backoff_max_ms);
  if (policy.jitter_pct != 0) {
    const std::uint64_t span = delay * policy.jitter_pct / 100;
    if (span != 0) delay += mix64(jitter_key) % (span + 1);
  }
  return static_cast<std::uint32_t>(delay);
}

}  // namespace

TargetProcess::TargetProcess(Config config) : config_(std::move(config)) {}

TargetProcess::~TargetProcess() { stop(); }

bool TargetProcess::ensure_started() {
  if (running()) return true;
  const RetryPolicy& policy = config_.retry;
  if (ever_started_) {
    // Crash-loop breaker: a server that keeps dying stops being respawned
    // once the lifetime budget is spent — campaigns then report a lost
    // server per execution instead of forking a doomed target forever.
    if (policy.max_respawns >= 0 &&
        tallies_.restarts >= static_cast<std::uint64_t>(policy.max_respawns)) {
      error_ = "crash-loop budget exhausted (" +
               std::to_string(policy.max_respawns) + " respawns)";
      return false;
    }
    // Exponential backoff (with deterministic jitter) before consecutive
    // respawns, so a crash-looping target does not busy-spin fork+exec.
    const std::uint32_t delay = backoff_delay_ms(
        policy, consecutive_respawns_ + 1, tallies_.restarts + 1);
    if (delay != 0) ::usleep(delay * 1000u);
  }
  if (!spawn()) return false;
  // Count only successful respawns of a server that had previously come
  // up: a target that can never start keeps the counter at zero (that is
  // "server never started", not "server keeps dying").
  if (ever_started_) {
    ++tallies_.restarts;
    ++consecutive_respawns_;
  } else {
    ever_started_ = true;
  }
  return true;
}

bool TargetProcess::spawn() {
  stop();
  error_.clear();
  if (config_.argv.empty()) {
    error_ = "empty target command";
    return false;
  }
  ignore_sigpipe_once();

  // A fresh (zero-filled) segment per spawn: a respawn never races a peer's
  // shm_unlink of the previous name, and a dead server leaves no stale
  // bytes or sync counters behind.
  segment_ = ShmSegment::create(config_.segment_bytes);
  if (!segment_.valid()) {
    error_ = "shm segment creation failed: " + segment_.error();
    return false;
  }
  if (!segment_.named()) {
    error_ =
        "an out-of-process target needs a named shm segment (anonymous "
        "fallback cannot cross exec): " +
        segment_.error();
    return false;
  }
  std::vector<std::string> extra_env = {
      std::string(kShmNameEnv) + "=" + segment_.name(),
      std::string(kShmSizeEnv) + "=" + std::to_string(segment_.size()),
  };
  supervise::append_jail_env(config_.jail, extra_env);
  inject::append_preload_env(config_.preload, config_.inject_mode, extra_env);

  // Everything execve() needs is materialized BEFORE fork(): a worker
  // thread of a parallel campaign may fork while siblings hold allocator
  // locks, so the child must restrict itself to async-signal-safe calls
  // (setpgid/fcntl/dup2/execve/_exit). That includes the PATH walk.
  const std::string executable = resolve_executable(config_.argv[0]);
  std::vector<char*> child_argv;
  child_argv.reserve(config_.argv.size() + 1);
  for (const std::string& arg : config_.argv) {
    child_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  child_argv.push_back(nullptr);
  // extra_env must OVERRIDE inherited duplicates, not merely follow them:
  // getenv returns the first match, so an inherited ICSFUZZ_OOP_SHM (a
  // debugging leftover, a nested harness) would otherwise shadow the
  // fresh per-spawn segment name.
  std::vector<char*> child_env;
  for (char** env = environ; *env != nullptr; ++env) {
    bool overridden = false;
    for (const std::string& entry : extra_env) {
      overridden |= same_env_name(*env, entry);
    }
    if (!overridden) child_env.push_back(*env);
  }
  for (const std::string& entry : extra_env) {
    child_env.push_back(const_cast<char*>(entry.c_str()));
  }
  child_env.push_back(nullptr);

  int ctl_pipe[2];
  int st_pipe[2];
  if (::pipe2(ctl_pipe, O_CLOEXEC) != 0) {
    error_ = std::string("pipe2(ctl): ") + std::strerror(errno);
    return false;
  }
  if (::pipe2(st_pipe, O_CLOEXEC) != 0) {
    error_ = std::string("pipe2(st): ") + std::strerror(errno);
    ::close(ctl_pipe[0]);
    ::close(ctl_pipe[1]);
    return false;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    error_ = std::string("fork: ") + std::strerror(errno);
    for (const int fd : {ctl_pipe[0], ctl_pipe[1], st_pipe[0], st_pipe[1]}) {
      ::close(fd);
    }
    return false;
  }
  if (pid == 0) {
    // Child: lead a fresh process group — the server's execution children
    // stay in it, so stop()'s group kill reaps a wedged server AND any
    // in-flight child instead of orphaning the grandchild.
    ::setpgid(0, 0);
    // Install the protocol descriptors. Two edge cases under fd pressure:
    // a pipe end may already BE 198/199 (dup2 would be a no-op that leaves
    // O_CLOEXEC set and the fd closes across exec), and the ctl end could
    // occupy the st end's slot (the second dup2 would clobber it) — so
    // first move any end sitting inside the target range above it.
    int ctl = ctl_pipe[0];
    int st = st_pipe[1];
    if (ctl == kCtlFd || ctl == kStFd) ctl = ::fcntl(ctl, F_DUPFD, kStFd + 1);
    if (st == kCtlFd || st == kStFd) st = ::fcntl(st, F_DUPFD, kStFd + 1);
    if (ctl < 0 || st < 0 || ::dup2(ctl, kCtlFd) < 0 ||
        ::dup2(st, kStFd) < 0) {
      ::_exit(126);
    }
    ::execve(executable.c_str(), child_argv.data(), child_env.data());
    ::_exit(127);
  }

  // Parent. The control pipe goes non-blocking: requests are written
  // through the deadline-aware poll loop, so a wedged server that stops
  // draining the pipe surfaces as a timeout instead of blocking forever.
  ::close(ctl_pipe[0]);
  ::close(st_pipe[1]);
  ctl_fd_ = ctl_pipe[1];
  st_fd_ = st_pipe[0];
  ::fcntl(ctl_fd_, F_SETFL, ::fcntl(ctl_fd_, F_GETFL) | O_NONBLOCK);
  pid_.store(pid, std::memory_order_relaxed);

  std::uint32_t hello[2] = {0, 0};
  const ReadStatus status = read_full_deadline(st_fd_, hello, sizeof hello,
                                               config_.handshake_timeout_ms);
  if (status != ReadStatus::kOk || hello[0] != config_.hello_magic) {
    error_ = status == ReadStatus::kTimeout
                 ? "target server handshake timed out"
                 : (status == ReadStatus::kClosed
                        ? "target server exited before handshake"
                        : "target server sent a bad hello");
    stop();
    return false;
  }
  hello_word_ = hello[1];
  return true;
}

bool TargetProcess::try_reap() {
  if (exited_) return true;
  const pid_t pid = this->pid();
  if (pid <= 0) return false;
  int wstatus = 0;
  pid_t reaped = 0;
  do {
    reaped = ::waitpid(pid, &wstatus, WNOHANG);
  } while (reaped < 0 && errno == EINTR);
  if (reaped != pid) return false;
  pid_.store(-1, std::memory_order_relaxed);  // reaped: never kill this pid
  close_pipes();
  hello_word_ = 0;
  wait_status_ = wstatus;
  exited_ = true;
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
    ++tallies_.orderly_exits;
  }
  return true;
}

bool TargetProcess::reap_within(int timeout_ms) {
  for (int waited = 0;; ++waited) {
    if (try_reap()) return true;
    if (waited >= timeout_ms || !running()) return false;
    ::usleep(1000);
  }
}

void TargetProcess::close_pipes() {
  if (ctl_fd_ >= 0) ::close(ctl_fd_);
  if (st_fd_ >= 0) ::close(st_fd_);
  ctl_fd_ = st_fd_ = -1;
}

void TargetProcess::stop() {
  close_pipes();
  const pid_t pid = this->pid();
  if (pid > 0) {
    // Group kill first: it also reaps any in-flight execution child a
    // wedged or already-dead server left behind. The direct kill is the
    // fallback for a server that died before setpgid took effect.
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    pid_.store(-1, std::memory_order_relaxed);
  }
  hello_word_ = 0;
  exited_ = false;
}

void TargetProcess::kill() const {
  // ESRCH (the server died on its own in the meantime) is harmless.
  const pid_t pid = this->pid();
  if (pid > 0) {
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL);
  }
}

}  // namespace icsfuzz::oop
