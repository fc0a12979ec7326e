// libicsfuzz-preload.so — instrumentation-injection runtime.
//
// LD_PRELOADed into a stock binary, the constructor below attaches the
// shared-memory segment named by ICSFUZZ_OOP_SHM and turns the process
// into a fork-server target speaking exec_oop/exec_protocol.hpp — without
// the binary linking a single icsfuzz object. Two modes
// (ICSFUZZ_INJECT_MODE):
//
//   fork (default)  The constructor NEVER RETURNS in the spawned process:
//                   it becomes the fork server (the target's own main()
//                   does not run there). Each request forks a child; the
//                   child finishes dynamic-loader initialization — which
//                   is where the target's sancov guard tables register,
//                   fresh and deterministic per execution — and runs the
//                   real main() with the fuzz packet on stdin. An atexit
//                   hook publishes the aux block on orderly exit; _exit /
//                   signals skip it, so the missing completion magic
//                   classifies the run as a crash, exactly like the
//                   in-tree shim. Persistent mode engages only when the
//                   target exports icsfuzz_persistent_target and drives
//                   __icsfuzz_persistent_loop (see inject_protocol.hpp);
//                   otherwise the hello advertises no capability and the
//                   client stays on fork-per-exec.
//
//   tcp             The constructor returns and the target's own socket
//                   server runs; the runtime interposes listen/accept/
//                   write/send/close to speak the TCP session wire
//                   (session/session_wire.hpp): hello with the real bound
//                   port, per-session map arming at accept, a served
//                   counter per response write, aux + session counter at
//                   close. A watcher thread turns control-pipe EOF into
//                   orderly shutdown. The resource jail applies to the
//                   serving process itself.
//
// Without ICSFUZZ_OOP_SHM in the environment the runtime is fully dormant
// — every interposer forwards — so a binary can keep the preload in its
// wrapper scripts unconditionally.
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "exec_oop/exec_protocol.hpp"
#include "inject/inject_protocol.hpp"
#include "inject/runtime_state.hpp"
#include "session/session_wire.hpp"
#include "supervise/resource_jail.hpp"

namespace icsfuzz::inject_rt {
namespace {

using oop::kAuxBytes;
using oop::kAuxOffset;
using oop::kCtlFd;
using oop::kStFd;

// -- Attached-segment state (set once, in the constructor). ----------------

std::uint8_t* g_segment = nullptr;
std::size_t g_segment_size = 0;
bool g_advertised_persistent = false;
bool g_tcp_mode = false;

/// Upper bound a hostile/corrupt environment cannot push us past: the
/// fork-server segment is ~576 KiB, the TCP segment ~128 KiB — 1 GiB is
/// absurd.
constexpr std::uint64_t kMaxSegmentBytes = std::uint64_t{1} << 30;

void warn(const char* what) {
  std::fprintf(stderr, "[icsfuzz-preload] %s\n", what);
}

/// Strict decimal u64 with overflow rejection (the runtime cannot lean on
/// the host's libicsfuzz — it isn't there).
bool parse_env_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

/// Publishes the inject-info block into the control-block tail (magic
/// last, behind a release fence). Called whenever fresher facts exist —
/// guard tables register during each child's loader init, after the
/// constructor already ran.
void publish_inject_info() {
  if (g_segment_size < oop::kSegmentBytesV2) return;
  std::uint8_t* info = g_segment + inject::kInjectInfoOffset;
  std::uint32_t flags = 0;
  if (sancov_seen()) flags |= inject::kInjectFlagSancov;
  if (g_advertised_persistent) flags |= inject::kInjectFlagPersistent;
  if (g_tcp_mode) flags |= inject::kInjectFlagTcp;
  const std::uint32_t version = inject::kInjectRuntimeVersion;
  const std::uint32_t guards = guard_total();
  std::memcpy(info + 4, &version, sizeof(version));
  std::memcpy(info + 8, &guards, sizeof(guards));
  std::memcpy(info + 12, &flags, sizeof(flags));
  std::atomic_thread_fence(std::memory_order_release);
  std::memcpy(info, &inject::kInjectInfoMagic, sizeof(std::uint32_t));
}

// -- Deadline supervision (mirrors shim_runner.cpp). -----------------------

volatile sig_atomic_t g_deadline_fired = 0;

void on_deadline(int) { g_deadline_fired = 1; }

/// SIGALRM without SA_RESTART so the blocking waitpid EINTRs on the tick.
void install_deadline_handler() {
  struct sigaction action {};
  action.sa_handler = on_deadline;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGALRM, &action, nullptr);
}

/// Repeating interval timer (0 disarms): a one-shot could fire and be
/// consumed before waitpid blocks; the repeat delivers another EINTR.
void arm_deadline(std::uint32_t timeout_ms) {
  struct itimerval timer {};
  timer.it_value.tv_sec = timeout_ms / 1000;
  timer.it_value.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  timer.it_interval = timer.it_value;
  ::setitimer(ITIMER_REAL, &timer, nullptr);
}

/// waitpid with the deadline armed; SIGKILLs the child when the timer
/// fires first. The runtime is the child's parent, so the pid cannot have
/// been recycled before the reap.
int await_child(pid_t child, std::uint32_t timeout_ms, bool wait_stops,
                bool& timed_out) {
  g_deadline_fired = 0;
  if (timeout_ms != 0) arm_deadline(timeout_ms);
  int wstatus = 0;
  timed_out = false;
  const int options = wait_stops ? WUNTRACED : 0;
  for (;;) {
    const pid_t reaped = ::waitpid(child, &wstatus, options);
    if (reaped == child) {
      if (timed_out && WIFSTOPPED(wstatus)) continue;
      break;
    }
    if (reaped < 0 && errno == EINTR) {
      if (g_deadline_fired && !timed_out) {
        timed_out = true;
        ::kill(child, SIGKILL);
      }
      continue;
    }
    break;
  }
  arm_deadline(0);
  return wstatus;
}

// -- Execution-child state (inside a fork child, post-fork only). ----------

/// Response bytes a cooperating target published via __icsfuzz_set_response
/// (stock targets write to stdout instead; their aux response stays empty).
constexpr std::size_t kResponseCap = std::size_t{1} << 14;
std::uint8_t g_response[kResponseCap];
std::uint32_t g_response_len = 0;

struct ExecChild {
  bool active = false;
  std::uint8_t* region = nullptr;  ///< map base (fork region or a slot)
};
ExecChild g_exec_child;

/// atexit hook of a fork-per-exec child: harvest the trace and publish the
/// aux block. Registered before the target's own handlers, so it runs
/// after them (LIFO) — their instrumented work still lands in the count.
/// _exit()/abort()/signals skip atexit entirely: no completion magic, and
/// the client classifies the run as a crash.
void publish_exec_aux() {
  if (!g_exec_child.active) return;
  oop::AuxResult result;
  result.events = trace_events();
  if (g_response_len != 0) {
    result.response.assign(g_response, g_response + g_response_len);
  }
  trace_disarm();
  // The aux block follows the map at the same offset in the fork-per-exec
  // region and in every slot (kAuxOffset == kSlotAuxOffset == kMapSize).
  oop::aux_store(g_exec_child.region + cov::kMapSize, kAuxBytes, result);
  publish_inject_info();
}

// -- Persistent-child state. -----------------------------------------------

// Constant-initialized only (the runtime_state.hpp invariant): a forked
// child mutates this BEFORE the library's init array finishes running in
// that child, so a dynamic initializer would wipe it. That rules out
// cov::DirtyWordList members (non-constexpr default constructor) — the
// per-slot dirty lists are plain zeroed arrays instead.
struct PersistentChildState {
  bool active = false;          ///< this process is the persistent child
  std::uint32_t iteration = 0;  ///< loop calls completed (1-based)
  std::uint32_t budget = 0;
  std::uint32_t slot = 0;
  std::uint32_t dirty_count[oop::kNumSlots] = {};
  std::uint16_t dirty_indices[oop::kNumSlots][cov::kMapWords] = {};
  bool slot_used[oop::kNumSlots] = {};
};
PersistentChildState g_pchild;

/// Restores a slot's map invariant before an iteration: full memset on
/// this child's first use (whatever an earlier child left), sparse clear
/// of this child's previous dirty words after that. Either way the aux
/// magic ends up invalid, so a crash mid-iteration cannot read as done.
void prepare_slot(std::uint32_t slot) {
  std::uint8_t* slot_base = g_segment + oop::slot_offset(slot);
  if (!g_pchild.slot_used[slot]) {
    std::memset(slot_base, 0, cov::kMapSize + kAuxBytes);
    g_pchild.slot_used[slot] = true;
    g_pchild.dirty_count[slot] = 0;
  } else {
    auto* words = reinterpret_cast<std::uint64_t*>(slot_base);
    const std::uint16_t* indices = g_pchild.dirty_indices[slot];
    for (std::uint32_t i = 0; i < g_pchild.dirty_count[slot]; ++i) {
      words[indices[i]] = 0;
    }
    g_pchild.dirty_count[slot] = 0;
    std::memset(slot_base + oop::kSlotAuxOffset, 0, 4);
  }
}

/// Publishes the finished iteration's aux block into its slot and saves
/// the trace's dirty words for the next sparse clear of that slot.
void publish_iteration_aux() {
  const std::uint32_t slot = g_pchild.slot;
  std::uint8_t* slot_base = g_segment + oop::slot_offset(slot);
  const std::uint32_t traced = trace_dirty_count();
  g_pchild.dirty_count[slot] = traced;
  std::memcpy(g_pchild.dirty_indices[slot], trace_dirty_indices(),
              std::size_t{traced} * sizeof(std::uint16_t));
  oop::AuxResult result;
  result.events = trace_events();
  if (g_response_len != 0) {
    result.response.assign(g_response, g_response + g_response_len);
  }
  trace_disarm();
  oop::aux_store(slot_base + oop::kSlotAuxOffset, kAuxBytes, result);
}

// -- Fork-server parent loop (never returns). ------------------------------

/// Writes what fits without blocking; the rest is finished after fork (the
/// child is the reader, so a pre-fork full-pipe write would deadlock).
std::size_t write_some_nonblocking(int fd, const std::uint8_t* data,
                                   std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN (pipe full until the child drains) or error
  }
  return off;
}

/// Drains the reaped child's captured stdout and, when the child published
/// a complete aux block without a cooperative response, re-stores the block
/// with the stdout bytes as the response. A crashed/killed child left no
/// completion magic — its stdout is discarded along with the run.
void harvest_child_stdout(int fd, std::uint8_t* region) {
  static std::uint8_t captured[kResponseCap];
  std::size_t total = 0;
  bool truncated = false;
  for (;;) {
    std::uint8_t sink[4096];
    std::uint8_t* dst = total < kResponseCap ? captured + total : sink;
    const std::size_t room =
        total < kResponseCap ? kResponseCap - total : sizeof(sink);
    const ssize_t n = ::read(fd, dst, room);
    if (n > 0) {
      if (total < kResponseCap) {
        total += static_cast<std::size_t>(n);
      } else {
        truncated = true;  // kept draining only to learn this
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF, EAGAIN (a live grandchild still holds the pipe), error
  }
  if (total == 0) return;
  std::uint8_t* aux = region + cov::kMapSize;
  oop::AuxResult result;
  if (!oop::aux_load(aux, kAuxBytes, result)) return;
  if (!result.response.empty()) return;  // cooperative response wins
  result.response.assign(captured, captured + total);
  result.response_truncated = truncated;
  oop::aux_store(aux, kAuxBytes, result);
}

struct PersistentParent {
  pid_t pid = -1;
  std::uint32_t iteration = 0;
  std::uint32_t budget = 0;

  [[nodiscard]] bool alive() const { return pid > 0; }
};

void kill_persistent_child(PersistentParent& child) {
  if (!child.alive()) return;
  ::kill(child.pid, SIGKILL);
  int wstatus = 0;
  while (::waitpid(child.pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  child.pid = -1;
}

/// Forks one execution child that runs the target's real main() with
/// `packet` on stdin, tracing into `region` (fork-per-exec base or a slot —
/// caller memset it). Returns true from THE CHILD, which must let the
/// constructor return so the dynamic loader finishes initialization (the
/// target's sancov guard tables register there) and main() runs. In the
/// parent, fills wstatus/timed_out.
bool fork_exec_child(const supervise::ResourceJail& jail,
                     std::uint8_t* region, const std::vector<std::uint8_t>& packet,
                     std::uint32_t timeout_ms, int& wstatus, bool& timed_out) {
  int stdin_pipe[2];
  if (::pipe(stdin_pipe) != 0) ::_exit(5);
  const int rfd = stdin_pipe[0];
  const int wfd = stdin_pipe[1];
  ::fcntl(wfd, F_SETFL, O_NONBLOCK);
  const std::size_t pre_written =
      packet.empty() ? 0
                     : write_some_nonblocking(wfd, packet.data(), packet.size());
  // Child stdout rides a second pipe: a stock target's response is whatever
  // it prints, and the fuzzer's own stdout must not be polluted by fuzzed
  // traffic. Drained after the reap (nonblocking), capped at kResponseCap;
  // a target flooding past the pipe buffer blocks and the deadline turns
  // that into a hang — defensible for a filter-style program.
  int stdout_pipe[2];
  if (::pipe(stdout_pipe) != 0) ::_exit(5);

  const pid_t child = ::fork();
  if (child < 0) ::_exit(5);
  if (child == 0) {
    ::close(wfd);
    ::close(stdout_pipe[0]);
    ::dup2(rfd, STDIN_FILENO);
    if (rfd != STDIN_FILENO) ::close(rfd);
    ::dup2(stdout_pipe[1], STDOUT_FILENO);
    if (stdout_pipe[1] != STDOUT_FILENO) ::close(stdout_pipe[1]);
    supervise::apply_in_child(jail);
    g_exec_child.active = true;
    g_exec_child.region = region;
    g_response_len = 0;
    trace_arm(region);
    std::atexit(publish_exec_aux);
    return true;
  }

  ::close(rfd);
  ::close(stdout_pipe[1]);
  ::fcntl(stdout_pipe[0], F_SETFL, O_NONBLOCK);
  bool stdin_stalled = false;
  if (pre_written < packet.size()) {
    const oop::ReadStatus st = oop::write_full_deadline(
        wfd, packet.data() + pre_written, packet.size() - pre_written,
        timeout_ms != 0 ? static_cast<int>(timeout_ms) : -1);
    if (st == oop::ReadStatus::kTimeout) {
      // The child never drained its input inside the deadline: a hang by
      // definition, whatever it was doing instead.
      ::kill(child, SIGKILL);
      stdin_stalled = true;
    }
    // kClosed (EPIPE) means the child exited without reading everything —
    // await_child below reports how.
  }
  ::close(wfd);
  wstatus = await_child(child, stdin_stalled ? 0 : timeout_ms,
                        /*wait_stops=*/false, timed_out);
  if (stdin_stalled) timed_out = true;
  harvest_child_stdout(stdout_pipe[0], region);
  ::close(stdout_pipe[0]);
  return false;
}

/// The fork-server request loop, entered from the constructor and never
/// left in the parent. Returns (true) only inside a freshly forked child,
/// which then continues loader init toward the target's main().
bool fork_server_loop() {
  const char* veto = std::getenv(inject::kInjectPersistentEnv);
  const bool vetoed = veto != nullptr && std::strcmp(veto, "0") == 0;
  // Persistent mode is a cooperation contract, not something a preload can
  // impose: only a target exporting the marker (and driving
  // __icsfuzz_persistent_loop) gets the capability advertised. Everyone
  // else degrades to fork-per-exec by construction.
  const bool persistent_ok =
      !vetoed &&
      ::dlsym(RTLD_DEFAULT, inject::kPersistentMarkerSymbol) != nullptr;
  g_advertised_persistent = persistent_ok;

  const std::uint32_t hello[2] = {oop::kHelloMagicV2,
                                  persistent_ok ? oop::kCapPersistent : 0};
  if (!oop::write_full(kStFd, hello, sizeof(hello))) ::_exit(4);

  install_deadline_handler();
  const supervise::ResourceJail jail = supervise::jail_from_env();

  std::vector<std::uint8_t> packet;
  PersistentParent persistent;
  std::uint64_t exec_index = 0;
  for (;;) {
    // Request header: [u32 timeout_ms][u32 control][u32 packet_len].
    std::uint32_t header[3] = {0, 0, 0};
    if (!oop::read_full(kCtlFd, header, sizeof header)) {
      kill_persistent_child(persistent);
      ::_exit(0);  // EOF: orderly shutdown, target's main never runs here
    }
    const std::uint32_t timeout_ms = header[0];
    const std::uint32_t control = header[1];
    const std::uint32_t length = header[2];
    if (length > kMaxSegmentBytes) ::_exit(5);
    packet.resize(length);
    if (length != 0 && !oop::read_full(kCtlFd, packet.data(), length)) {
      ::_exit(0);
    }
    ++exec_index;

    std::int32_t wire_status = 0;
    std::uint32_t flags = 0;
    std::uint32_t iteration = 0;
    bool timed_out = false;

    if ((control & oop::kCtlPersistent) != 0 && persistent_ok) {
      // -- Persistent iteration (cooperating target). ---------------------
      const std::uint32_t slot = oop::control_slot(control);
      std::uint32_t budget = oop::control_budget(control);
      if (budget == 0) budget = 1;
      const bool fresh = !persistent.alive();
      oop::ctl_store(g_segment,
                     oop::CtlBlock{slot, fresh ? budget : persistent.budget,
                                   exec_index});
      if (fresh) {
        const pid_t child = ::fork();
        if (child < 0) ::_exit(5);
        if (child == 0) {
          supervise::apply_in_child(jail);
          g_pchild.active = true;
          g_response_len = 0;
          // Loader init continues to main(); the target drives iterations
          // through __icsfuzz_persistent_loop below.
          return true;
        }
        persistent = PersistentParent{child, 1, budget};
      } else {
        ++persistent.iteration;
        ::kill(persistent.pid, SIGCONT);
      }

      const int wstatus = await_child(persistent.pid, timeout_ms,
                                      /*wait_stops=*/true, timed_out);
      iteration = persistent.iteration;
      flags = oop::kReplyPersistent;
      wire_status = static_cast<std::int32_t>(wstatus);
      if (timed_out) {
        flags |= oop::kReplyTimedOut |
                 oop::encode_recycle(oop::RecycleReason::kHang);
        persistent.pid = -1;
      } else if (WIFSTOPPED(wstatus)) {
        wire_status = 0;
      } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0 &&
                 persistent.iteration >= persistent.budget) {
        wire_status = 0;
        flags |= oop::encode_recycle(oop::RecycleReason::kBudget);
        persistent.pid = -1;
      } else {
        flags |= oop::encode_recycle(oop::RecycleReason::kCrash);
        persistent.pid = -1;
      }
    } else if ((control & oop::kCtlPersistent) != 0) {
      // -- Persistent requested, target not cooperating: serve it as a
      // budget-1 persistent child — a fresh fork whose packet comes from
      // the slot (stdin) and whose results land in the slot. The reply
      // says "budget recycle at iteration 1", so a client that raced the
      // capability handshake still gets correct semantics, just at
      // fork-per-exec cost.
      const std::uint32_t slot = oop::control_slot(control);
      std::uint8_t* slot_base = g_segment + oop::slot_offset(slot);
      std::memset(slot_base, 0, cov::kMapSize + kAuxBytes);
      const auto slot_packet = oop::slot_load_packet(g_segment, slot);
      std::vector<std::uint8_t> slot_bytes(slot_packet.begin(),
                                           slot_packet.end());
      int wstatus = 0;
      if (fork_exec_child(jail, slot_base, slot_bytes, timeout_ms, wstatus,
                          timed_out)) {
        return true;  // the child: continue to main()
      }
      iteration = 1;
      flags = oop::kReplyPersistent;
      wire_status = static_cast<std::int32_t>(wstatus);
      if (timed_out) {
        flags |= oop::kReplyTimedOut |
                 oop::encode_recycle(oop::RecycleReason::kHang);
      } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
        wire_status = 0;
        flags |= oop::encode_recycle(oop::RecycleReason::kBudget);
      } else {
        flags |= oop::encode_recycle(oop::RecycleReason::kCrash);
      }
    } else {
      // -- Fork-per-exec over the fork-per-exec region. -------------------
      std::memset(g_segment, 0, oop::kSegmentBytes);
      int wstatus = 0;
      if (fork_exec_child(jail, g_segment, packet, timeout_ms, wstatus,
                          timed_out)) {
        return true;  // the child: continue to main()
      }
      wire_status = static_cast<std::int32_t>(wstatus);
      if (timed_out) flags |= oop::kReplyTimedOut;
    }

    const std::uint32_t reply[3] = {static_cast<std::uint32_t>(wire_status),
                                    flags, iteration};
    if (!oop::write_full(kStFd, reply, sizeof reply)) ::_exit(6);
  }
}

// -- TCP interposition mode. -----------------------------------------------

struct TcpState {
  bool active = false;
  bool hello_sent = false;
  int conn_fd = -1;  ///< the tracked (first concurrent) session connection
  std::uint64_t served = 0;
  std::uint64_t sessions = 0;
};
TcpState g_tcp;

/// Control-pipe watcher: the client closing its end is the shutdown
/// signal, same as the fork server's request-read EOF.
void* tcp_watch_ctl(void*) {
  struct pollfd pfd {};
  pfd.fd = kCtlFd;
  pfd.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&pfd, 1, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return nullptr;
    }
    if ((pfd.revents & POLLNVAL) != 0) return nullptr;  // not our spawn
    if ((pfd.revents & (POLLHUP | POLLERR)) != 0) ::_exit(0);
    if ((pfd.revents & POLLIN) != 0) {
      char buf[64];
      const ssize_t n = ::read(kCtlFd, buf, sizeof(buf));
      if (n == 0) ::_exit(0);  // EOF
      if (n < 0 && errno != EINTR) return nullptr;
    }
  }
}

void tcp_session_begin(int fd) {
  g_tcp.conn_fd = fd;
  std::memset(g_segment, 0, cov::kMapSize);
  std::memset(g_segment + kAuxOffset, 0, 4);  // invalidate aux magic
  g_response_len = 0;
  trace_arm(g_segment);
}

void tcp_session_end() {
  oop::AuxResult result;
  result.events = trace_events();
  trace_disarm();
  oop::aux_store(g_segment + kAuxOffset, kAuxBytes, result);
  ++g_tcp.sessions;
  session::sync_publish_session_done(g_segment, g_tcp.sessions);
  g_tcp.conn_fd = -1;
}

/// First successful listen(): report the real bound port through the TCP
/// hello. Also the first moment the target's guard tables are registered,
/// so the info block gets published here.
void tcp_on_listen(int fd) {
  if (g_tcp.hello_sent) return;
  sockaddr_storage addr {};
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    return;
  }
  std::uint32_t port = 0;
  if (addr.ss_family == AF_INET) {
    port = ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
  } else if (addr.ss_family == AF_INET6) {
    port = ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
  }
  if (port == 0) return;
  g_tcp.hello_sent = true;
  publish_inject_info();
  const std::uint32_t hello[2] = {oop::kTcpHelloMagic, port};
  // A failed hello (no status pipe: manual run) is fine — the server just
  // serves whoever connects, untracked.
  (void)oop::write_full(kStFd, hello, sizeof(hello));
}

void tcp_init() {
  g_tcp.active = true;
  // The target's own process serves every session, so the resource jail
  // applies to it (the fork mode applies it per execution child instead).
  supervise::apply_in_child(supervise::jail_from_env());
  pthread_t watcher;
  if (::pthread_create(&watcher, nullptr, tcp_watch_ctl, nullptr) == 0) {
    ::pthread_detach(watcher);
  }
}

// -- Constructor. ----------------------------------------------------------

__attribute__((constructor)) void icsfuzz_inject_init() {
  const char* shm_name = std::getenv(oop::kShmNameEnv);
  if (shm_name == nullptr || *shm_name == '\0') return;  // dormant

  const char* mode = std::getenv(inject::kInjectModeEnv);
  const bool tcp = mode != nullptr &&
                   std::strcmp(mode, inject::kInjectModeTcp) == 0;
  const std::uint64_t min_size =
      tcp ? session::kTcpSegmentBytes : oop::kSegmentBytesV2;
  std::uint64_t shm_size = 0;
  if (!parse_env_u64(std::getenv(oop::kShmSizeEnv), shm_size) ||
      shm_size < min_size || shm_size > kMaxSegmentBytes) {
    warn("invalid ICSFUZZ_OOP_SHM_SIZE; staying dormant");
    return;
  }
  const int fd = ::shm_open(shm_name, O_RDWR, 0);
  if (fd < 0) {
    warn("shm_open failed; staying dormant");
    return;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::uint64_t>(st.st_size) < shm_size) {
    warn("shm object smaller than ICSFUZZ_OOP_SHM_SIZE; staying dormant");
    ::close(fd);
    return;
  }
  void* mapped = ::mmap(nullptr, static_cast<std::size_t>(shm_size),
                        PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) {
    warn("mmap failed; staying dormant");
    return;
  }
  g_segment = static_cast<std::uint8_t*>(mapped);
  g_segment_size = static_cast<std::size_t>(shm_size);

  // Processes the *target* spawns must not re-enter the protocol: scrub
  // the attach variables now that they are consumed. LD_PRELOAD may stay —
  // a runtime without ICSFUZZ_OOP_SHM is dormant.
  ::unsetenv(oop::kShmNameEnv);
  ::unsetenv(oop::kShmSizeEnv);
  ::unsetenv(inject::kInjectModeEnv);

  if (tcp) {
    tcp_init();
    return;  // the target's own main() serves; interposers do the wire
  }
  // Fork mode: the parent lives (and dies) inside this call. Only a
  // freshly forked execution/persistent child returns, continuing loader
  // initialization toward the target's main().
  (void)fork_server_loop();
}

}  // namespace
}  // namespace icsfuzz::inject_rt

// -- Cooperation + interposition surface (C ABI). --------------------------

extern "C" {

/// Persistent-mode iteration driver (see inject_protocol.hpp for the
/// contract). Returns 0 when this process is not a persistent child, which
/// routes a cooperating target to its standalone input path.
int __icsfuzz_persistent_loop(void) {
  using namespace icsfuzz;
  using namespace icsfuzz::inject_rt;
  if (!g_pchild.active) return 0;
  if (g_pchild.iteration != 0) {
    publish_iteration_aux();
    if (g_pchild.iteration >= g_pchild.budget) ::_exit(0);  // budget recycle
    ::raise(SIGSTOP);  // iteration complete; SIGCONT resumes with new ctl
  }
  const oop::CtlBlock ctl = oop::ctl_load(g_segment);
  const std::uint32_t slot =
      ctl.slot < oop::kNumSlots ? ctl.slot : 0;
  if (g_pchild.iteration == 0) {
    g_pchild.budget = ctl.budget != 0 ? ctl.budget : 1;
    publish_inject_info();  // guard tables registered during loader init
  }
  g_pchild.slot = slot;
  prepare_slot(slot);
  g_response_len = 0;
  trace_arm(g_segment + oop::slot_offset(slot));
  ++g_pchild.iteration;
  return 1;
}

/// The current iteration's packet (persistent children only; fork-per-exec
/// children read stdin and get nullptr here).
const unsigned char* __icsfuzz_testcase(unsigned* len) {
  using namespace icsfuzz;
  using namespace icsfuzz::inject_rt;
  if (!g_pchild.active || g_pchild.iteration == 0) {
    if (len != nullptr) *len = 0;
    return nullptr;
  }
  const auto packet = oop::slot_load_packet(g_segment, g_pchild.slot);
  if (len != nullptr) *len = static_cast<unsigned>(packet.size());
  return packet.data();
}

/// Publishes response bytes into the current execution's aux block
/// (optional; clamped to the runtime's buffer).
void __icsfuzz_set_response(const void* data, unsigned len) {
  using namespace icsfuzz::inject_rt;
  if (data == nullptr) {
    g_response_len = 0;
    return;
  }
  const auto take = static_cast<std::uint32_t>(
      len > kResponseCap ? kResponseCap : len);
  std::memcpy(g_response, data, take);
  g_response_len = take;
}

// -- TCP-mode libc interposers. All dormant-safe: without an active tcp
// session state they forward straight to libc.

int listen(int sockfd, int backlog) {
  using namespace icsfuzz::inject_rt;
  static auto real =
      reinterpret_cast<int (*)(int, int)>(::dlsym(RTLD_NEXT, "listen"));
  const int rc = real(sockfd, backlog);
  if (rc == 0 && g_tcp.active) tcp_on_listen(sockfd);
  return rc;
}

int accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen) {
  using namespace icsfuzz::inject_rt;
  static auto real = reinterpret_cast<int (*)(int, struct sockaddr*,
                                              socklen_t*)>(
      ::dlsym(RTLD_NEXT, "accept"));
  const int fd = real(sockfd, addr, addrlen);
  if (fd >= 0 && g_tcp.active && g_tcp.conn_fd < 0) tcp_session_begin(fd);
  return fd;
}

int accept4(int sockfd, struct sockaddr* addr, socklen_t* addrlen,
            int flags) {
  using namespace icsfuzz::inject_rt;
  static auto real = reinterpret_cast<int (*)(int, struct sockaddr*,
                                              socklen_t*, int)>(
      ::dlsym(RTLD_NEXT, "accept4"));
  const int fd = real(sockfd, addr, addrlen, flags);
  if (fd >= 0 && g_tcp.active && g_tcp.conn_fd < 0) tcp_session_begin(fd);
  return fd;
}

ssize_t write(int fd, const void* buf, size_t count) {
  using namespace icsfuzz;
  using namespace icsfuzz::inject_rt;
  static auto real = reinterpret_cast<ssize_t (*)(int, const void*, size_t)>(
      ::dlsym(RTLD_NEXT, "write"));
  const ssize_t rc = real(fd, buf, count);
  if (rc > 0 && g_tcp.active && fd == g_tcp.conn_fd) {
    ++g_tcp.served;
    session::sync_publish_served(g_segment, g_tcp.served,
                                 static_cast<std::uint32_t>(rc));
  }
  return rc;
}

ssize_t send(int fd, const void* buf, size_t count, int flags) {
  using namespace icsfuzz;
  using namespace icsfuzz::inject_rt;
  static auto real =
      reinterpret_cast<ssize_t (*)(int, const void*, size_t, int)>(
          ::dlsym(RTLD_NEXT, "send"));
  const ssize_t rc = real(fd, buf, count, flags);
  if (rc > 0 && g_tcp.active && fd == g_tcp.conn_fd) {
    ++g_tcp.served;
    session::sync_publish_served(g_segment, g_tcp.served,
                                 static_cast<std::uint32_t>(rc));
  }
  return rc;
}

int close(int fd) {
  using namespace icsfuzz::inject_rt;
  static auto real =
      reinterpret_cast<int (*)(int)>(::dlsym(RTLD_NEXT, "close"));
  if (g_tcp.active && fd >= 0 && fd == g_tcp.conn_fd) tcp_session_end();
  return real(fd);
}

}  // extern "C"
