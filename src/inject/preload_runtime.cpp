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
//                   does not run there) and forks one execution child at a
//                   time. A stock binary's child (budget K = 1) claims its
//                   request from the handoff block, finishes
//                   dynamic-loader initialization — which is where the
//                   target's sancov guard tables register, fresh and
//                   deterministic per execution — and runs the real main()
//                   with the packet on stdin and stdout captured. An
//                   atexit hook publishes the aux block on orderly exit;
//                   _exit / signals skip it, so the missing completion
//                   magic classifies the run as a crash, exactly like the
//                   in-tree shim. The server completes the record when it
//                   reaps the child, after harvesting its stdout. A target
//                   that exports icsfuzz_persistent_target and drives
//                   __icsfuzz_persistent_loop (see inject_protocol.hpp)
//                   gets the persistent capability, and its children loop
//                   K > 1 executions when the client asks for them.
//
//   tcp             The constructor returns and the target's own socket
//                   server runs; the runtime interposes listen/accept/
//                   write/send/close to speak the TCP session wire
//                   (session/session_wire.hpp): hello with the real bound
//                   port, per-session map arming at accept, one
//                   response-length log entry per successful write or
//                   send on the session connection, aux + session counter
//                   at close. The client splits the reply stream by that
//                   log, so a target that answers message i with one write
//                   lines its responses up with the messages; TCP itself
//                   keeps no boundaries. A watcher thread turns
//                   control-pipe EOF into orderly shutdown. The resource
//                   jail applies to the serving process itself.
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
#include <unistd.h>

#include <algorithm>
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
using oop::kCtlFd;
using oop::kStFd;
using session::kAuxOffset;

// -- Attached-segment state (set once, in the constructor). ----------------

std::uint8_t* g_segment = nullptr;
std::size_t g_segment_size = 0;
bool g_advertised_persistent = false;
bool g_tcp_mode = false;

/// Upper bound a hostile/corrupt environment cannot push us past: the
/// fork-server segment is ~768 KiB, the TCP segment ~128 KiB — 1 GiB is
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
  if (g_tcp_mode) flags |= inject::kInjectFlagTcp;
  const std::uint32_t version = inject::kInjectRuntimeVersion;
  const std::uint32_t guards = guard_total();
  std::memcpy(info + 4, &version, sizeof(version));
  std::memcpy(info + 8, &guards, sizeof(guards));
  std::memcpy(info + 12, &flags, sizeof(flags));
  std::atomic_thread_fence(std::memory_order_release);
  std::memcpy(info, &inject::kInjectInfoMagic, sizeof(std::uint32_t));
}

/// Publishes the closing trace window's dirty-word list into the region at
/// `dirty_list` (call before trace_disarm). The list is per thread, so it
/// is the window's only on the thread that armed it; from any other thread
/// the region stays unpublished and the client scans the whole map.
void publish_dirty_list(std::uint8_t* dirty_list) {
  if (!trace_armed()) return;
  oop::dirty_list_store(dirty_list, trace_dirty_indices(),
                        trace_dirty_count());
}

// -- Execution-child state (inside a fork child, post-fork only). ----------

/// Response bytes a cooperating target published via __icsfuzz_set_response
/// (stock targets write to stdout instead; their aux response stays empty).
constexpr std::size_t kResponseCap = std::size_t{1} << 14;
std::uint8_t g_response[kResponseCap];
std::uint32_t g_response_len = 0;

struct StockChild {
  bool active = false;
  std::uint8_t* region = nullptr;  ///< the request's slot
};
StockChild g_stock_child;

/// atexit hook of a stock child: harvest the trace and publish the aux
/// block. Registered before the target's own handlers, so it runs after
/// them (LIFO) — their instrumented work still lands in the count.
/// _exit()/abort()/signals skip atexit entirely: no completion magic, and
/// the client classifies the run as a crash.
void publish_stock_aux() {
  if (!g_stock_child.active) return;
  oop::AuxResult result;
  result.events = trace_events();
  if (g_response_len != 0) {
    result.response.assign(g_response, g_response + g_response_len);
  }
  publish_dirty_list(g_stock_child.region + oop::kSlotDirtyListOffset);
  trace_disarm();
  oop::aux_store(g_stock_child.region + oop::kSlotAuxOffset, kAuxBytes,
                 result);
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
  std::uint32_t request = 0;    ///< the handoff request being served
  std::uint32_t slot = 0;
  std::uint32_t dirty_count[oop::kNumSlots] = {};
  std::uint16_t dirty_indices[oop::kNumSlots][cov::kMapWords] = {};
  bool slot_used[oop::kNumSlots] = {};
};
PersistentChildState g_pchild;

/// Restores a slot's map invariant before an iteration: the aux magic and
/// the dirty-word list invalidated first, so a crash mid-iteration cannot
/// read as done; then a full memset of the map on this child's first use
/// (whatever an earlier child left), a sparse clear of this child's
/// previous dirty words after that.
void prepare_slot(std::uint32_t slot) {
  std::uint8_t* slot_base = g_segment + oop::slot_offset(slot);
  oop::slot_invalidate_result(g_segment, slot);
  if (!g_pchild.slot_used[slot]) {
    std::memset(slot_base, 0, cov::kMapSize);
    g_pchild.slot_used[slot] = true;
  } else {
    auto* words = reinterpret_cast<std::uint64_t*>(slot_base);
    const std::uint16_t* indices = g_pchild.dirty_indices[slot];
    for (std::uint32_t i = 0; i < g_pchild.dirty_count[slot]; ++i) {
      words[indices[i]] = 0;
    }
  }
  g_pchild.dirty_count[slot] = 0;
}

/// Publishes the finished iteration's dirty-word list and aux block into
/// its slot and saves the trace's dirty words for the next sparse clear of
/// that slot.
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
  publish_dirty_list(slot_base + oop::kSlotDirtyListOffset);
  trace_disarm();
  oop::aux_store(slot_base + oop::kSlotAuxOffset, kAuxBytes, result);
}

// -- Fork-server parent loop (never returns). ------------------------------

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
  std::uint8_t* aux = region + oop::kSlotAuxOffset;
  oop::AuxResult result;
  if (!oop::aux_load(aux, kAuxBytes, result)) return;
  if (!result.response.empty()) return;  // cooperative response wins
  result.response.assign(captured, captured + total);
  result.response_truncated = truncated;
  oop::aux_store(aux, kAuxBytes, result);
}

/// Inside a freshly forked stock child: claims the next request, puts its
/// packet (the slot's, or `piped` when it rode the control pipe) on stdin
/// through a memfd, points stdout at `stdout_fd`, and arms the trace into
/// the request's slot. The caller then lets the constructor return, so the
/// dynamic loader finishes initialization (the target's sancov guard
/// tables register there) and main() runs.
void enter_stock_child(oop::HandoffBlock& block, const Bytes& piped,
                       int stdout_fd) {
  const std::uint32_t request = oop::shared_load(block.claimed) + 1;
  oop::child_claim(block, request);
  const std::uint32_t slot = oop::request_slot(block, request);
  const ByteSpan packet =
      piped.empty() ? oop::slot_load_packet(g_segment, slot) : ByteSpan(piped);
  const int input = ::memfd_create("icsfuzz-stdin", 0);
  if (input < 0 || !oop::write_full(input, packet.data(), packet.size()) ||
      ::lseek(input, 0, SEEK_SET) != 0) {
    ::_exit(5);
  }
  ::dup2(input, STDIN_FILENO);
  if (input != STDIN_FILENO) ::close(input);
  ::dup2(stdout_fd, STDOUT_FILENO);
  if (stdout_fd != STDOUT_FILENO) ::close(stdout_fd);
  prepare_slot(slot);
  g_stock_child.active = true;
  g_stock_child.region = g_segment + oop::slot_offset(slot);
  g_response_len = 0;
  trace_arm(g_stock_child.region);
  std::atexit(publish_stock_aux);
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
  // else gets a fresh main() per execution by construction.
  const bool persistent_ok =
      !vetoed &&
      ::dlsym(RTLD_DEFAULT, inject::kPersistentMarkerSymbol) != nullptr;
  g_advertised_persistent = persistent_ok;

  const std::uint32_t hello[2] = {oop::kHelloMagicV2,
                                  persistent_ok ? oop::kCapPersistent : 0};
  if (!oop::write_full(kStFd, hello, sizeof(hello))) ::_exit(4);

  const supervise::ResourceJail jail = supervise::jail_from_env();
  oop::HandoffBlock& block = oop::handoff_block(g_segment);

  Bytes piped;  // a packet too large for a slot, from its kFork
  std::uint32_t budget = 1;  // the K of the client's last plain kFork
  oop::ExecChild child;
  int child_stdout = -1;  // a stock child's captured stdout (read end)
  for (;;) {
    // Asleep until a request or the child's death; executions never pass
    // through here (exec_protocol.hpp).
    struct pollfd fds[2] = {{kCtlFd, POLLIN, 0}, {child.pidfd(), POLLIN, 0}};
    if (::poll(fds, child.alive() ? 2 : 1, -1) < 0) {
      if (errno == EINTR) continue;
      ::_exit(6);
    }
    std::uint32_t fork_budget = 0;  // nonzero: fork a child now
    if (child.alive() && fds[1].revents != 0) {
      const int wstatus = child.reap();
      if (child_stdout >= 0 && child.claimed_any(block)) {
        const std::uint32_t slot =
            oop::request_slot(block, oop::shared_load(block.claimed));
        harvest_child_stdout(child_stdout, g_segment + oop::slot_offset(slot));
      }
      child.publish_death(block, wstatus);
      if (oop::ExecChild::requests_pending(block)) fork_budget = budget;
    } else if (fds[0].revents != 0) {
      oop::Request request;
      if (!oop::read_request(request, piped)) {
        child.kill();
        ::_exit(0);  // EOF: orderly shutdown, target's main never runs here
      }
      if (request.op == oop::Op::kFork && piped.empty()) {
        budget = std::max(request.arg, std::uint32_t{1});
        fork_budget = budget;
      } else if (request.op == oop::Op::kFork) {
        (void)child.retire_and_post(block);
        fork_budget = 1;
      } else if (request.op == oop::Op::kKill) {
        const std::int32_t wstatus =
            child.kill_for_deadline(block, request.arg);
        if (!oop::write_full(kStFd, &wstatus, sizeof wstatus)) ::_exit(6);
        if (oop::ExecChild::requests_pending(block)) fork_budget = budget;
      } else {
        ::_exit(6);  // not a request this protocol knows
      }
    }
    if (!child.alive() && child_stdout >= 0) {
      ::close(child_stdout);
      child_stdout = -1;
    }
    if (fork_budget == 0 || child.alive()) continue;

    // A loop child only for a cooperating target asked for K > 1; every
    // other execution is a stock child running main() once.
    const bool loop_child = persistent_ok && fork_budget > 1;
    int stdout_pipe[2] = {-1, -1};
    if (!loop_child && ::pipe(stdout_pipe) != 0) ::_exit(5);
    const std::uint32_t clean =
        oop::ExecChild::clear_next_map(block, g_segment);
    const int forked = child.fork(block);
    if (forked < 0) ::_exit(5);
    if (forked == 0) {
      supervise::apply_in_child(jail);
      if (clean < oop::kNumSlots) g_pchild.slot_used[clean] = true;
      g_response_len = 0;
      if (loop_child) {
        g_pchild.active = true;
        g_pchild.budget = fork_budget;
        g_pchild.request = oop::shared_load(block.claimed);
        // Loader init continues to main(); the target drives iterations
        // through __icsfuzz_persistent_loop below.
      } else {
        ::close(stdout_pipe[0]);
        enter_stock_child(block, piped, stdout_pipe[1]);
      }
      return true;
    }
    piped.clear();
    if (!loop_child) {
      ::close(stdout_pipe[1]);
      child_stdout = stdout_pipe[0];
      ::fcntl(child_stdout, F_SETFL, O_NONBLOCK);
    }
  }
}

// -- TCP interposition mode. -----------------------------------------------

struct TcpState {
  bool active = false;
  bool hello_sent = false;
  int conn_fd = -1;  ///< the tracked (first concurrent) session connection
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
  oop::result_invalidate(g_segment + kAuxOffset,
                         g_segment + session::kDirtyListOffset);
  std::memset(g_segment, 0, cov::kMapSize);
  session::sync_log_reset(g_segment);
  g_response_len = 0;
  trace_arm(g_segment);
}

void tcp_session_end() {
  oop::AuxResult result;
  result.events = trace_events();
  publish_dirty_list(g_segment + session::kDirtyListOffset);
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
  oop::HandoffBlock& block = oop::handoff_block(g_segment);
  if (g_pchild.iteration != 0) {
    publish_iteration_aux();
    oop::child_complete(block, g_pchild.request, g_pchild.iteration);
    if (g_pchild.iteration >= g_pchild.budget) ::_exit(0);  // budget recycle
  } else {
    publish_inject_info();  // guard tables registered during loader init
  }
  // Blocks until the client hands over the next request.
  oop::child_claim(block, ++g_pchild.request);
  const std::uint32_t slot = oop::request_slot(block, g_pchild.request);
  g_pchild.slot = slot;
  prepare_slot(slot);
  g_response_len = 0;
  trace_arm(g_segment + oop::slot_offset(slot));
  ++g_pchild.iteration;
  return 1;
}

/// The current iteration's packet (loop children only; stock children read
/// stdin and get nullptr here).
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
    session::sync_log_append(g_segment, static_cast<std::uint32_t>(rc));
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
    session::sync_log_append(g_segment, static_cast<std::uint32_t>(rc));
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
