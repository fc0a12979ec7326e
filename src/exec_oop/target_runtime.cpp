#include "exec_oop/target_runtime.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "exec_oop/wake_word.hpp"
#include "session/session_wire.hpp"
#include "supervise/resource_jail.hpp"

namespace icsfuzz::oop {

namespace {

/// Exit codes a child uses to hand a server-level fault-plan hook to its
/// fork server, which never sees an execution: the child that reads
/// execution index N is the first to know. The server honours them only
/// while the matching knob is set.
constexpr int kChildServerExit = 94;    ///< server_exit_at: server exits 9
constexpr int kChildServerRetire = 95;  ///< server_retire_after: exits 0

std::uint64_t env_u64(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return 0;
  return std::strtoull(value, nullptr, 10);
}

/// Fault-plan OOM hook: maps address space until RLIMIT_AS refuses, then
/// calls the new_handler as a failing operator new would (the jail's
/// handler exits through supervise::kOomExitCode). It maps directly
/// because a sanitizer's operator new reports OOM itself and never calls
/// the handler. Chunks are never touched, and an unjailed run leaves
/// through the marker code after a bounded number of mappings — the hook
/// drives the jail's kOom classification path, it does not exhaust the
/// host.
[[noreturn]] void exhaust_memory() {
  constexpr std::size_t kChunkBytes = 64u << 20;  // 64 MiB per mapping
  for (int i = 0; i < (1 << 14); ++i) {           // <= 1 TiB of VA
    if (::mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0) == MAP_FAILED) {
      if (const std::new_handler handler = std::get_new_handler()) handler();
      break;
    }
  }
  ::_exit(supervise::kOomExitCode);
}

/// The server's exit code for a reaped child's fault-plan exit (see
/// kChildServerExit), -1 to keep serving.
int fault_plan_exit(const FaultPlan& plan, int wstatus) {
  const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  if (plan.server_exit_at != 0 && code == kChildServerExit) {
    return 9;  // simulated fork-server crash
  }
  if (plan.server_retire_after != 0 && code == kChildServerRetire) {
    return 0;  // orderly retirement after the child's last execution
  }
  return -1;
}

/// Fires the plan's per-execution hooks that match `index`, in the calling
/// process. Returns only when none matched.
void trip_execution_faults(const FaultPlan& plan, std::uint64_t index) {
  if (plan.kill_child_at != 0 && index == plan.kill_child_at) {
    ::raise(SIGKILL);
  }
  if (plan.segv_at != 0 && index == plan.segv_at) {
    // Default disposition first: a sanitizer's SEGV handler would report
    // and exit(1) instead of dying on the signal a stock binary dies on.
    ::signal(SIGSEGV, SIG_DFL);
    ::raise(SIGSEGV);
  }
  if (plan.hang_at != 0 && index == plan.hang_at) {
    for (;;) ::pause();
  }
  if (plan.oom_at != 0 && index == plan.oom_at) exhaust_memory();
}

/// Publishes a server-observed death of the child serving `request`.
void publish_result(HandoffBlock& block, std::uint32_t request, int wstatus,
                    std::uint32_t iteration) {
  HandoffRecord& record = handoff_record(block, request);
  record.died = 1;
  record.wstatus = wstatus;
  record.iteration = iteration;
  shared_store(record.done, request);
}

bool request_done(HandoffBlock& block, std::uint32_t request) {
  return shared_load(handoff_record(block, request).done) == request;
}

/// Posted requests wait unclaimed: after a death, a child is due.
bool requests_pending(HandoffBlock& block) {
  // Sequentially consistent, after the generation bump: pairs with the
  // client's request bump and generation read (see the protocol comment).
  const std::uint32_t posted =
      std::atomic_ref<std::uint32_t>(block.request).load();
  return static_cast<std::int32_t>(posted - shared_load(block.claimed)) > 0;
}

/// Before a fork: when the request the next child serves first is already
/// posted, zeroes its slot's map here, where the pages are mapped — a fresh
/// child would fault in every one of them. Its result slot is the client's
/// to reuse once posted. Returns that slot (the child starts with it
/// clean), kNumSlots when nothing was posted yet.
std::uint32_t clear_next_map(HandoffBlock& block, std::uint8_t* segment) {
  if (!requests_pending(block)) return kNumSlots;
  const std::uint32_t slot =
      request_slot(block, shared_load(block.claimed) + 1);
  std::memset(segment + slot_offset(slot), 0, cov::kMapSize);
  return slot;
}

/// Reads the next request from kCtlFd and, for a kFork that carries a
/// packet, its bytes into `packet` (emptied otherwise). False when the
/// client is gone (EOF, read error) or sent a packet_len above
/// kMaxPacketBytes.
bool read_request(Request& request, Bytes& packet) {
  if (!read_full(kCtlFd, &request, sizeof request)) return false;
  packet.clear();
  if (request.packet_len == 0) return true;
  if (request.op != Op::kFork || request.packet_len > kMaxPacketBytes) {
    return false;
  }
  packet.resize(request.packet_len);
  return read_full(kCtlFd, packet.data(), packet.size());
}

/// The fork server's execution child — fork, pidfd, reap, kill — and the
/// handoff bookkeeping of its deaths. No destructor kills the child: every
/// execution child inherits a copy of this object, and a preloaded one
/// unwinds it on its way to main().
class ExecChild {
 public:
  /// Forks a child unless one lives. Returns 0 in the child (which dies
  /// with this process), 1 in the parent, -1 when fork/pidfd_open failed.
  int fork(HandoffBlock& block) {
    if (alive()) return 1;
    const pid_t server = ::getpid();
    claimed_at_fork_ = shared_load(block.claimed);
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
      // Die with the server: a server that exits without reaping must not
      // leave a child blocked on the request word forever.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != server) ::_exit(0);
      return 0;
    }
    const int fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (fd < 0) {
      ::kill(pid, SIGKILL);
      while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
      }
      return -1;
    }
    pid_ = pid;
    pidfd_ = fd;
    std::atomic_ref<std::uint32_t>(block.generation).fetch_add(1);
    return 1;
  }

  [[nodiscard]] bool alive() const { return pid_ > 0; }
  /// Readable once the child has died (poll it with the control pipe).
  [[nodiscard]] int pidfd() const { return pidfd_; }
  /// The child claimed a request (call before publish_death).
  [[nodiscard]] bool claimed_any(HandoffBlock& block) const {
    return shared_load(block.claimed) != claimed_at_fork_;
  }

  /// Reaps the child once its pidfd is readable; returns its wait status.
  int reap() {
    int wstatus = 0;
    while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
    ::close(pidfd_);
    pid_ = -1;
    pidfd_ = -1;
    return wstatus;
  }

  /// Publishes the reaped child's death: the request it died on gets the
  /// wait status and the client wakes (see the protocol comment in
  /// exec_protocol.hpp), and the generation turns even.
  void publish_death(HandoffBlock& block, int wstatus) {
    const std::uint32_t claimed = shared_load(block.claimed);
    bool published = false;
    if (claimed != claimed_at_fork_) {
      // Died on (or after) the last request it took.
      if (!request_done(block, claimed)) {
        publish_result(block, claimed, wstatus, claimed - claimed_at_fork_);
        published = true;
      }
    } else if (static_cast<std::int32_t>(shared_load(block.request) -
                                         claimed) > 0) {
      // Died before taking its first request (a preloaded target that
      // crashed on its way to the loop): that request is the casualty.
      shared_store(block.claimed, claimed + 1);
      publish_result(block, claimed + 1, wstatus, 1);
      published = true;
    }
    std::atomic_ref<std::uint32_t>(block.generation).fetch_add(1);
    // A budget recycle published nothing, and no client waits on it: the
    // next request's fork is settled through the request and generation
    // words alone.
    if (published) bump_wake(&block.wake);
  }

  /// kKill: SIGKILLs the child unless it has moved past `request`, reaps
  /// it, and makes sure no later child serves `request`. Returns the wait
  /// status of a killed child, 0 otherwise.
  int kill_for_deadline(HandoffBlock& block, std::uint32_t request) {
    if (request_done(block, request)) return 0;  // finished at the boundary
    const int wstatus = kill_and_reap(block);
    const std::uint32_t claimed = shared_load(block.claimed);
    const auto ahead = static_cast<std::int32_t>(claimed - request);
    if (ahead >= 0 && request_done(block, claimed)) {
      // Everything through `claimed` finished before the kill landed.
    } else if (ahead > 0) {
      // The kill caught a later request the client has not timed out: it
      // did not finish, so the next child serves it again from scratch.
      shared_store(block.claimed, claimed - 1);
    } else {
      publish_result(block, request, wstatus, request - claimed_at_fork_);
      shared_store(block.claimed, request);
    }
    bump_wake(&block.wake);
    return wstatus;
  }

  /// kFork with a packet: SIGKILLs and reaps the idle child, publishing
  /// nothing (it has claimed nothing), then posts the request the client
  /// numbered but could not post. Returns the retired child's wait status,
  /// 0 when none lived.
  int retire_and_post(HandoffBlock& block) {
    const int wstatus = kill_and_reap(block);
    bump_wake(&block.request);
    return wstatus;
  }

  /// SIGKILLs and reaps a living child and turns the generation even.
  /// Returns its wait status, 0 when none lived.
  int kill_and_reap(HandoffBlock& block) {
    if (!alive()) return 0;
    ::kill(pid_, SIGKILL);
    const int wstatus = reap();
    std::atomic_ref<std::uint32_t>(block.generation).fetch_add(1);
    return wstatus;
  }

 private:
  pid_t pid_ = -1;
  int pidfd_ = -1;
  /// `claimed` when the child was forked: unchanged at death means the
  /// child died before claiming any request.
  std::uint32_t claimed_at_fork_ = 0;
};

}  // namespace

std::span<std::uint8_t> attach_announced_segment(std::size_t min_bytes) {
  constexpr std::uint64_t kMaxShmBytes = std::uint64_t{1} << 30;
  const char* name = std::getenv(kShmNameEnv);
  const char* text = std::getenv(kShmSizeEnv);
  const char* end = text != nullptr ? text + std::strlen(text) : nullptr;
  std::uint64_t size = 0;  // strict: digits only, the whole value, no overflow
  const std::from_chars_result parsed = std::from_chars(text, end, size);
  if (name == nullptr || *name == '\0' || parsed.ec != std::errc() ||
      parsed.ptr != end || size < min_bytes || size > kMaxShmBytes) {
    return {};
  }
  const int fd = ::shm_open(name, O_RDWR, 0);
  if (fd < 0) return {};
  struct stat st {};
  void* mapped = MAP_FAILED;
  if (::fstat(fd, &st) == 0 && static_cast<std::uint64_t>(st.st_size) >= size) {
    mapped = ::mmap(nullptr, static_cast<std::size_t>(size),
                    PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  }
  ::close(fd);
  if (mapped == MAP_FAILED) return {};
  return {static_cast<std::uint8_t*>(mapped), static_cast<std::size_t>(size)};
}

FaultPlan fault_plan_from_env() {
  FaultPlan plan;
  plan.no_handshake = env_u64("ICSFUZZ_SHIM_NO_HANDSHAKE") != 0;
  plan.kill_child_at = env_u64("ICSFUZZ_SHIM_KILL_CHILD_AT");
  plan.segv_at = env_u64("ICSFUZZ_SHIM_SEGV_AT");
  plan.hang_at = env_u64("ICSFUZZ_SHIM_HANG_AT");
  plan.oom_at = env_u64("ICSFUZZ_SHIM_OOM_AT");
  plan.server_exit_at = env_u64("ICSFUZZ_SHIM_SERVER_EXIT_AT");
  plan.server_retire_after = env_u64("ICSFUZZ_SHIM_SERVER_RETIRE_AFTER");
  return plan;
}

ForkedChild serve_fork_requests(std::uint8_t* segment, std::uint32_t caps,
                                const FaultPlan& plan,
                                const ForkServerHooks& hooks) {
  if (plan.no_handshake) ::_exit(7);
  const std::uint32_t hello[2] = {kHelloMagicV2, caps};
  if (!write_full(kStFd, hello, sizeof(hello))) ::_exit(4);

  // The jail travels from the fuzzing parent as environment variables and
  // is applied inside every forked execution child — never in this server
  // process, which must stay alive across jail-killed children.
  const supervise::ResourceJail jail = supervise::jail_from_env();
  HandoffBlock& block = handoff_block(segment);

  Bytes piped;  // a packet too large for a slot, from its kFork
  std::uint32_t budget = 1;  // the K of the client's last plain kFork
  ExecChild child;
  for (;;) {
    // Sleep until the client asks for something or the child dies;
    // executions themselves never pass through here.
    struct pollfd fds[2] = {{kCtlFd, POLLIN, 0}, {child.pidfd(), POLLIN, 0}};
    if (::poll(fds, child.alive() ? 2 : 1, -1) < 0) {
      if (errno == EINTR) continue;
      ::_exit(6);
    }
    std::uint32_t fork_budget = 0;  // nonzero: fork a child now
    if (child.alive() && fds[1].revents != 0) {
      const int wstatus = child.reap();
      if (hooks.after_reap != nullptr) {
        hooks.after_reap(block, child.claimed_any(block));
      }
      const int code = fault_plan_exit(plan, wstatus);
      if (code > 0) ::_exit(code);
      // A retiring child completed its last execution before it exited:
      // a stock child's, which the server completes, ended cleanly.
      child.publish_death(block, code == 0 ? 0 : wstatus);
      if (code == 0) ::_exit(0);
      if (requests_pending(block)) fork_budget = budget;
    } else if (fds[0].revents != 0) {
      Request request;
      if (!read_request(request, piped)) {
        child.kill_and_reap(block);
        ::_exit(0);  // EOF: orderly shutdown
      }
      if (request.op == Op::kFork && piped.empty()) {
        budget = std::max(request.arg, 1u);
        fork_budget = budget;
      } else if (request.op == Op::kFork) {
        const int code = fault_plan_exit(plan, child.retire_and_post(block));
        if (code >= 0) ::_exit(code);
        fork_budget = 1;
      } else if (request.op == Op::kKill) {
        const std::int32_t wstatus =
            child.kill_for_deadline(block, request.arg);
        if (!write_full(kStFd, &wstatus, sizeof wstatus)) ::_exit(6);
        if (requests_pending(block)) fork_budget = budget;
      } else {
        ::_exit(6);  // not a request this protocol knows
      }
    }
    if (fork_budget == 0 || child.alive()) continue;
    if (hooks.before_fork != nullptr) hooks.before_fork(fork_budget);
    const std::uint32_t clean = clear_next_map(block, segment);
    const int forked = child.fork(block);
    if (forked < 0) ::_exit(5);
    if (forked == 0) {
      supervise::apply_in_child(jail);
      return {fork_budget, clean, std::move(piped)};
    }
    piped.clear();
  }
}

void MapDirtyTable::prepare(std::uint8_t* map, std::uint8_t* aux,
                            std::uint8_t* dirty_list) {
  // Only the magic of the aux block: aux_store bounds every later read,
  // and each page of a shared slot costs a fresh child a fault.
  result_invalidate(aux, dirty_list);
  if (!known) {
    std::memset(map, 0, cov::kMapSize);
    known = true;
  } else {
    auto* words = reinterpret_cast<std::uint64_t*>(map);
    for (std::uint32_t i = 0; i < count; ++i) words[indices[i]] = 0;
  }
  count = 0;
}

void MapDirtyTable::publish(std::uint8_t* aux, std::uint8_t* dirty_list,
                            const std::uint16_t* dirty,
                            std::uint32_t dirty_count,
                            const AuxResult& result) {
  known = dirty != nullptr;
  if (known) {
    count = dirty_count;
    std::memcpy(indices, dirty, std::size_t{count} * sizeof(std::uint16_t));
    dirty_list_store(dirty_list, dirty, count);
  }
  aux_store(aux, kAuxBytes, result);
}

void SlotLifecycle::start(std::uint8_t* segment, const FaultPlan& plan,
                          const ForkedChild& forked) {
  segment_ = segment;
  plan_ = &plan;
  budget_ = forked.budget;
  request_ = shared_load(handoff_block(segment).claimed);
  // A slot is fully zeroed the first time THIS child serves it (its table
  // is unknown until then), except the one the server already cleared.
  // Clearing lazily — instead of the server wiping all slots at fork —
  // matters with pipelining: at a recycle boundary the client may not yet
  // have read the previous child's final slots, and the handoff only
  // guarantees a slot's result has been consumed before a NEW request
  // lands on that slot.
  if (forked.clean < kNumSlots) tables_[forked.clean].known = true;
}

std::uint8_t* SlotLifecycle::begin() {
  // Block (no timeout — the child dies with its server) until the next
  // request is posted, then claim it. The sleep is announced, then the word
  // re-read (see bump_wake_waiter), and sliced like every other wait on a
  // wake word, so a wake that goes missing costs a slice, never the
  // execution's deadline.
  HandoffBlock& block = handoff_block(segment_);
  const std::uint32_t request = ++request_;
  const auto posted_since = [&](std::uint32_t posted) {
    return static_cast<std::int32_t>(posted - request) >= 0;
  };
  if (!posted_since(shared_load(block.request))) {
    for (;;) {
      std::atomic_ref<std::uint32_t>(block.request_waiting).store(1);
      const std::uint32_t posted =
          std::atomic_ref<std::uint32_t>(block.request).load();
      if (posted_since(posted)) break;
      wait_wake(&block.request, posted, kSyncWaitSliceMs);
    }
  }
  shared_store(block.claimed, request);
  ++iteration_;
  slot_ = request_slot(block, request_);
  // Fault-plan hooks key off the client's per-server execution index.
  index_ = handoff_record(block, request_).exec_index;
  if (plan_->server_exit_at != 0 && index_ == plan_->server_exit_at) {
    ::_exit(kChildServerExit);
  }
  std::uint8_t* map = segment_ + slot_offset(slot_);
  tables_[slot_].prepare(map, map + kSlotAuxOffset, map + kSlotDirtyListOffset);
  trip_execution_faults(*plan_, index_);
  return map;
}

ByteSpan SlotLifecycle::packet(const ForkedChild& forked) const {
  if (iteration_ == 1 && !forked.piped.empty()) return forked.piped;
  return slot_load_packet(segment_, slot_);
}

void SlotLifecycle::publish(const std::uint16_t* dirty, std::uint32_t count,
                            const AuxResult& result) {
  std::uint8_t* map = segment_ + slot_offset(slot_);
  tables_[slot_].publish(map + kSlotAuxOffset, map + kSlotDirtyListOffset,
                         dirty, count, result);
}

void SlotLifecycle::complete() {
  // The aux block is already stored: the record's done goes last, then the
  // client wakes.
  HandoffBlock& block = handoff_block(segment_);
  HandoffRecord& record = handoff_record(block, request_);
  record.died = 0;
  record.iteration = iteration_;
  shared_store(record.done, request_);
  bump_wake_waiter(&block.wake, &block.wake_waiting);
  retire_if_due();
  if (iteration_ >= budget_) ::_exit(0);  // budget exhausted: recycle me
}

void SlotLifecycle::retire_if_due() const {
  if (plan_->server_retire_after != 0 &&
      index_ >= plan_->server_retire_after) {
    std::fflush(nullptr);
    ::_exit(kChildServerRetire);
  }
}

std::uint8_t* SessionMap::begin(std::uint8_t* segment, const FaultPlan& plan) {
  ++accepted_;
  if (plan.server_exit_at != 0 && accepted_ == plan.server_exit_at) {
    ::_exit(9);
  }
  trip_execution_faults(plan, accepted_);
  table_.prepare(segment, segment + session::kAuxOffset,
                 segment + session::kDirtyListOffset);
  session::sync_log_reset(segment);
  return segment;
}

void SessionMap::end(std::uint8_t* segment, const std::uint16_t* dirty,
                     std::uint32_t count, const AuxResult& result) {
  table_.publish(segment + session::kAuxOffset,
                 segment + session::kDirtyListOffset, dirty, count, result);
  session::sync_publish_session_done(segment, ++completed_);
}

}  // namespace icsfuzz::oop
