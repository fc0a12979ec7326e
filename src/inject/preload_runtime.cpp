// libicsfuzz-preload.so — instrumentation-injection runtime.
//
// LD_PRELOADed into a stock binary, the constructor below attaches the
// shared-memory segment named by ICSFUZZ_OOP_SHM and turns the process
// into an out-of-process target — without the binary linking a single
// icsfuzz object. The protocol machinery — the segment attach, the
// fork-server loop, the slot and session lifecycles and the ICSFUZZ_SHIM_*
// fault plan — is the shared target runtime's (exec_oop/target_runtime.hpp),
// the same code the in-tree shim runs; this file adds only what a stock
// binary needs around it: stdin/stdout plumbing, the cooperation hooks, the
// libc interposers and the sancov trace window. Two modes
// (ICSFUZZ_INJECT_MODE; docs/INJECTION.md has the full contract):
//
//   fork (default)  The constructor NEVER RETURNS in the spawned process:
//                   it becomes the fork server. A stock binary's child
//                   (K = 1) readies its request's slot, lets loader init
//                   finish — the target's sancov guard tables register
//                   there — and runs the real main() with the packet on
//                   stdin; an atexit hook publishes the result, and the
//                   server completes it when it reaps the child, after
//                   harvesting its stdout. A target that exports
//                   icsfuzz_persistent_target and drives
//                   __icsfuzz_persistent_loop (inject_protocol.hpp) gets
//                   loop children of K > 1 executions.
//
//   tcp             The constructor returns and the target's own socket
//                   server runs; the runtime interposes listen/accept/
//                   write/send/close to speak the TCP session wire
//                   (session/session_wire.hpp): hello with the real bound
//                   port, a session per accepted connection, one
//                   response-length log entry per write or send on it. A
//                   watcher thread turns control-pipe EOF into orderly
//                   shutdown. The resource jail and the fault plan apply
//                   to the serving process itself.
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
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/target_runtime.hpp"
#include "inject/inject_protocol.hpp"
#include "inject/runtime_state.hpp"
#include "session/session_wire.hpp"
#include "supervise/resource_jail.hpp"

namespace icsfuzz::inject_rt {
namespace {

using oop::kCtlFd;
using oop::kStFd;

// Every static below is constinit: the runtime_state.hpp invariant, which
// the compiler enforces.

// -- Attached-segment state (set once, in the constructor). ----------------

constinit std::uint8_t* g_segment = nullptr;
constinit std::size_t g_segment_size = 0;
constinit bool g_advertised_persistent = false;
constinit oop::FaultPlan g_plan;

/// Publishes the inject-info block into the handoff-block tail (magic
/// last, behind a release fence). Called whenever fresher facts exist —
/// guard tables register during each child's loader init, after the
/// constructor already ran.
void publish_inject_info() {
  if (g_segment_size < oop::kSegmentBytesV2) return;
  std::uint8_t* info = g_segment + inject::kInjectInfoOffset;
  std::uint32_t flags = 0;
  if (sancov_seen()) flags |= inject::kInjectFlagSancov;
  if (g_advertised_persistent) flags |= inject::kInjectFlagPersistent;
  const std::uint32_t version = inject::kInjectRuntimeVersion;
  const std::uint32_t guards = guard_total();
  std::memcpy(info + 4, &version, sizeof(version));
  std::memcpy(info + 8, &guards, sizeof(guards));
  std::memcpy(info + 12, &flags, sizeof(flags));
  std::atomic_thread_fence(std::memory_order_release);
  std::memcpy(info, &inject::kInjectInfoMagic, sizeof(std::uint32_t));
}

/// Closes the trace window into `result`'s event count. Returns the
/// window's dirty-word list, null when the window was not armed on this
/// thread — the list is per thread, so from any other thread it is unknown
/// and the result publishes none (the client then scans the whole map).
const std::uint16_t* close_trace_window(oop::AuxResult& result) {
  result.events = trace_events();
  const bool armed = trace_armed();
  trace_disarm();
  return armed ? trace_dirty_indices() : nullptr;
}

// -- Fork mode. ------------------------------------------------------------

/// The execution child's slot lifecycle (inside a fork child only).
constinit oop::SlotLifecycle g_slots;

/// Response bytes a cooperating target published via __icsfuzz_set_response
/// (stock targets write to stdout instead; their aux response stays empty).
constexpr std::size_t kResponseCap = std::size_t{1} << 14;
constinit std::uint8_t g_response[kResponseCap] = {};
constinit std::uint32_t g_response_len = 0;

/// Closes the execution's trace window and publishes it into its slot.
void publish_execution() {
  oop::AuxResult result;
  const std::uint16_t* dirty = close_trace_window(result);
  if (g_response_len != 0) {
    result.response.assign(g_response, g_response + g_response_len);
  }
  g_slots.publish(dirty, trace_dirty_count(), result);
}

/// This process is a persistent loop child.
constinit bool g_loop_child = false;
/// This process is a stock child, whose atexit hook publishes its result.
constinit bool g_stock_child = false;
/// The stock child's stdout capture pipe (server side; the child keeps the
/// write end). The server holds both ends until the child is reaped: the
/// harvest stops at EAGAIN, not EOF.
constinit int g_stdout_pipe[2] = {-1, -1};

void close_stdout_pipe() {
  for (int& fd : g_stdout_pipe) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

/// A loop child only for a cooperating target asked for K > 1; every other
/// execution is a stock child running main() once.
bool loop_child_for(std::uint32_t budget) {
  return g_advertised_persistent && budget > 1;
}

/// atexit hook of a stock child: publish the trace and the aux block.
/// Registered before the target's own handlers, so it runs after them
/// (LIFO) — their instrumented work still lands in the count. _exit()/
/// abort()/signals skip atexit entirely: no completion magic, and the
/// client classifies the run as a crash. The server completes the
/// request when it reaps the child.
void publish_stock_aux() {
  if (!g_stock_child) return;
  publish_execution();
  publish_inject_info();
  g_slots.retire_if_due();
}

/// Fork-server hook: before a stock child's fork, drop the last child's
/// leftover capture (a killed child is never harvested) and open a fresh
/// pipe, nonblocking on the server's read end.
void stock_before_fork(std::uint32_t budget) {
  close_stdout_pipe();
  if (loop_child_for(budget)) return;
  if (::pipe(g_stdout_pipe) != 0) ::_exit(5);
  ::fcntl(g_stdout_pipe[0], F_SETFL, O_NONBLOCK);
}

/// Fork-server hook on a reaped stock child: drains its captured stdout
/// and, when the child published a complete aux block without a
/// cooperative response, re-stores the block with the stdout bytes as the
/// response. A crashed/killed child left no completion magic — its stdout
/// is discarded along with the run.
void stock_after_reap(oop::HandoffBlock& block, bool claimed_any) {
  const int fd = g_stdout_pipe[0];
  if (fd < 0) return;
  static std::uint8_t captured[kResponseCap];
  std::size_t total = 0;
  bool truncated = false;
  for (;;) {
    // Past the cap it keeps draining only to learn of the truncation.
    std::uint8_t sink[4096];
    const bool full = total == kResponseCap;
    const ssize_t n = ::read(fd, full ? sink : captured + total,
                             full ? sizeof(sink) : kResponseCap - total);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, EAGAIN (the pipe is drained), error
    truncated |= full;
    if (!full) total += static_cast<std::size_t>(n);
  }
  close_stdout_pipe();
  if (total == 0 || !claimed_any) return;
  const std::uint32_t slot =
      oop::request_slot(block, oop::shared_load(block.claimed));
  std::uint8_t* aux = g_segment + oop::slot_offset(slot) + oop::kSlotAuxOffset;
  oop::AuxResult result;
  if (!oop::aux_load(aux, oop::kAuxBytes, result)) return;
  if (!result.response.empty()) return;  // cooperative response wins
  result.response.assign(captured, captured + total);
  result.response_truncated = truncated;
  oop::aux_store(aux, oop::kAuxBytes, result);
}

/// Inside a freshly forked stock child: claims and readies the next
/// request through the slot lifecycle, puts its packet on stdin through a
/// memfd, points stdout at `stdout_fd`, and arms the trace into the slot.
/// The caller then lets the constructor return, so the dynamic loader
/// finishes initialization (the target's sancov guard tables register
/// there) and main() runs.
void enter_stock_child(const oop::ForkedChild& forked, int stdout_fd) {
  std::uint8_t* map = g_slots.begin();
  const ByteSpan packet = g_slots.packet(forked);
  const int input = ::memfd_create("icsfuzz-stdin", 0);
  if (input < 0 || !oop::write_full(input, packet.data(), packet.size()) ||
      ::lseek(input, 0, SEEK_SET) != 0) {
    ::_exit(5);
  }
  ::dup2(input, STDIN_FILENO);
  if (input != STDIN_FILENO) ::close(input);
  ::dup2(stdout_fd, STDOUT_FILENO);
  if (stdout_fd != STDOUT_FILENO) ::close(stdout_fd);
  g_stock_child = true;
  trace_arm(map);
  std::atexit(publish_stock_aux);
}

/// Fork mode, entered from the constructor: the shared fork-server loop,
/// which never returns in the server. Returns only inside a freshly forked
/// child, which then continues loader init toward the target's main().
void run_fork_mode() {
  const char* veto = std::getenv(inject::kInjectPersistentEnv);
  const bool vetoed = veto != nullptr && std::strcmp(veto, "0") == 0;
  // Persistent mode is a cooperation contract, not something a preload can
  // impose: only a target exporting the marker (and driving
  // __icsfuzz_persistent_loop) gets the capability advertised. Everyone
  // else gets a fresh main() per execution by construction.
  g_advertised_persistent =
      !vetoed &&
      ::dlsym(RTLD_DEFAULT, inject::kPersistentMarkerSymbol) != nullptr;

  const oop::ForkedChild forked = oop::serve_fork_requests(
      g_segment, g_advertised_persistent ? oop::kCapPersistent : 0, g_plan,
      {stock_before_fork, stock_after_reap});
  g_slots.start(g_segment, g_plan, forked);
  if (loop_child_for(forked.budget)) {
    // Loader init continues to main(); the target drives iterations
    // through __icsfuzz_persistent_loop below.
    g_loop_child = true;
    return;
  }
  ::close(g_stdout_pipe[0]);
  enter_stock_child(forked, g_stdout_pipe[1]);
}

// -- TCP interposition mode. -----------------------------------------------

struct TcpState {
  bool active = false;
  bool hello_sent = false;
  int conn_fd = -1;  ///< the tracked (first concurrent) session connection
  /// A session closed on another thread than the one that accepted it:
  /// that thread's window stays armed, so no later session's dirty words
  /// are known either.
  bool stray_window = false;
};
constinit TcpState g_tcp;
constinit oop::SessionMap g_session;

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

/// An accepted connection begins the session unless one is tracked.
int tcp_on_accept(int fd) {
  if (fd >= 0 && g_tcp.active && g_tcp.conn_fd < 0) {
    g_tcp.conn_fd = fd;
    trace_arm(g_session.begin(g_segment, g_plan));
  }
  return fd;
}

/// A write or send on the session connection logs its length.
ssize_t tcp_on_write(int fd, ssize_t rc) {
  if (rc > 0 && g_tcp.active && fd == g_tcp.conn_fd) {
    session::sync_log_append(g_segment, static_cast<std::uint32_t>(rc));
  }
  return rc;
}

void tcp_session_end() {
  oop::AuxResult result;
  const std::uint16_t* dirty = close_trace_window(result);
  g_tcp.stray_window |= dirty == nullptr;
  g_session.end(g_segment, g_tcp.stray_window ? nullptr : dirty,
                trace_dirty_count(), result);
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
  const std::span<std::uint8_t> segment = oop::attach_announced_segment(
      tcp ? session::kTcpSegmentBytes : oop::kSegmentBytesV2);
  if (segment.empty()) {
    std::fprintf(stderr,
                 "[icsfuzz-preload] unusable ICSFUZZ_OOP_SHM segment; "
                 "staying dormant\n");
    return;
  }
  g_segment = segment.data();
  g_segment_size = segment.size();
  g_plan = oop::fault_plan_from_env();

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
  run_fork_mode();
}

}  // namespace
}  // namespace icsfuzz::inject_rt

// -- Cooperation + interposition surface (C ABI). --------------------------

extern "C" {

/// Persistent-mode iteration driver (see inject_protocol.hpp for the
/// contract). Returns 0 when this process is not a persistent child, which
/// routes a cooperating target to its standalone input path.
int __icsfuzz_persistent_loop(void) {
  using namespace icsfuzz::inject_rt;
  if (!g_loop_child) return 0;
  if (g_slots.iteration() != 0) {
    publish_execution();
    g_slots.complete();
  } else {
    publish_inject_info();  // guard tables registered during loader init
  }
  // Blocks until the client hands over the next request.
  std::uint8_t* map = g_slots.begin();
  g_response_len = 0;
  trace_arm(map);
  return 1;
}

/// The current iteration's packet (loop children only; stock children read
/// stdin and get nullptr here).
const unsigned char* __icsfuzz_testcase(unsigned* len) {
  using namespace icsfuzz;
  using namespace icsfuzz::inject_rt;
  if (!g_loop_child || g_slots.iteration() == 0) {
    if (len != nullptr) *len = 0;
    return nullptr;
  }
  const auto packet = oop::slot_load_packet(g_segment, g_slots.slot());
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
  return tcp_on_accept(real(sockfd, addr, addrlen));
}

int accept4(int sockfd, struct sockaddr* addr, socklen_t* addrlen,
            int flags) {
  using namespace icsfuzz::inject_rt;
  static auto real = reinterpret_cast<int (*)(int, struct sockaddr*,
                                              socklen_t*, int)>(
      ::dlsym(RTLD_NEXT, "accept4"));
  return tcp_on_accept(real(sockfd, addr, addrlen, flags));
}

ssize_t write(int fd, const void* buf, size_t count) {
  using namespace icsfuzz::inject_rt;
  static auto real = reinterpret_cast<ssize_t (*)(int, const void*, size_t)>(
      ::dlsym(RTLD_NEXT, "write"));
  return tcp_on_write(fd, real(fd, buf, count));
}

ssize_t send(int fd, const void* buf, size_t count, int flags) {
  using namespace icsfuzz::inject_rt;
  static auto real =
      reinterpret_cast<ssize_t (*)(int, const void*, size_t, int)>(
          ::dlsym(RTLD_NEXT, "send"));
  return tcp_on_write(fd, real(fd, buf, count, flags));
}

int close(int fd) {
  using namespace icsfuzz::inject_rt;
  static auto real =
      reinterpret_cast<int (*)(int)>(::dlsym(RTLD_NEXT, "close"));
  if (g_tcp.active && fd >= 0 && fd == g_tcp.conn_fd) tcp_session_end();
  return real(fd);
}

}  // extern "C"
