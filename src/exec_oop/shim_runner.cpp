#include "exec_oop/shim_runner.hpp"

#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>

#include "coverage/instrument.hpp"
#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/shm_segment.hpp"
#include "sanitizer/fault.hpp"
#include "supervise/resource_jail.hpp"
#include "util/strings.hpp"

namespace icsfuzz::oop {

namespace {

std::uint64_t env_u64(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return 0;
  return std::strtoull(value, nullptr, 10);
}

/// Set by the SIGALRM handler when the per-exec deadline fires. The
/// handler only flags: the kill happens in normal context inside the
/// waitpid loop, where the child is provably not yet reaped — so the shim
/// can never SIGKILL a recycled pid.
volatile sig_atomic_t g_deadline_fired = 0;

void on_deadline(int) { g_deadline_fired = 1; }

/// Installs the SIGALRM disposition WITHOUT SA_RESTART, so the blocking
/// waitpid returns EINTR when the timer fires.
void install_deadline_handler() {
  struct sigaction action {};
  action.sa_handler = on_deadline;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGALRM, &action, nullptr);
}

/// Arms (or with 0 disarms) the per-exec interval timer. The timer
/// REPEATS at the same period: a one-shot could fire (and be consumed by
/// the handler) in the window between arming and waitpid() blocking —
/// e.g. the shim descheduled on a loaded runner — after which a hung
/// child would block the shim forever. With a repeating interval the next
/// tick delivers another EINTR and the kill still happens.
void arm_deadline(std::uint32_t timeout_ms) {
  struct itimerval timer {};
  timer.it_value.tv_sec = timeout_ms / 1000;
  timer.it_value.tv_usec =
      static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  timer.it_interval = timer.it_value;
  ::setitimer(ITIMER_REAL, &timer, nullptr);
}

/// Waits for `child` with the per-exec deadline armed; SIGKILLs it when
/// the timer fires first. With `wait_stops` the waitpid also returns for a
/// child that stopped itself (the persistent child's iteration-complete
/// SIGSTOP). Returns the raw wstatus; `timed_out` reports a deadline kill.
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
      // After a deadline SIGKILL, a stop that was already pending can be
      // reported first; keep waiting for the termination so the child is
      // actually reaped (no zombie) before the hang verdict goes out.
      if (timed_out && WIFSTOPPED(wstatus)) continue;
      break;
    }
    if (reaped < 0 && errno == EINTR) {
      if (g_deadline_fired && !timed_out) {
        timed_out = true;
        // SIGKILL terminates even a stopped child, so a deadline that
        // races the iteration-complete stop still converges: whichever
        // state change waitpid reports first wins, and a just-stopped
        // child is reported as stopped (completed), not as a hang.
        ::kill(child, SIGKILL);
      }
      continue;
    }
    break;  // unexpected waitpid failure; report whatever we have
  }
  arm_deadline(0);
  return wstatus;
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

/// One fork-per-exec execution, inside the forked child: trace into the
/// fork-per-exec region of the shm segment, run the target, publish the
/// aux block, _exit. Never returns.
[[noreturn]] void run_child(ProtocolTarget& target, std::uint8_t* segment,
                            ByteSpan packet) {
  // Same arming order as the in-process Executor::run_into — reset,
  // fault sink, then tracing — so an instrumented reset() contributes to
  // neither the map nor the event count in either mode (the differential
  // oracle depends on this symmetry, not on reset() happening to be
  // uninstrumented).
  target.reset();
  san::FaultSink::arm();
  // The child's trace must satisfy the dirty-list invariant "every word not
  // listed is zero": the server memset the whole segment before forking,
  // and this list starts empty.
  static cov::DirtyWordList dirty;
  dirty.count = 0;
  cov::begin_trace(segment, &dirty);

  AuxResult result;
  target.process_into(packet, result.response);
  result.events = cov::tls_event_count;
  cov::end_trace();
  san::FaultSink::disarm_into(result.faults);

  aux_store(segment + kAuxOffset, kAuxBytes, result);
  // _exit (not exit): no atexit handlers, no stdio flush, and — under
  // AddressSanitizer — no leak check in the short-lived child; the parent
  // process is the one leak detection watches.
  ::_exit(0);
}

/// The persistent child's ICSFUZZ_LOOP: up to `budget` executions in one
/// process, one per wakeup. Each iteration reads its slot assignment from
/// the control block, restores the slot's map invariant with a sparse
/// clear (its own per-slot dirty list — nobody else writes a slot's map
/// while this child serves it), runs the target, publishes the slot's aux
/// block, and raises SIGSTOP to report completion. The final iteration
/// _exit(0)s instead — the budget-exhaustion recycle the shim re-forks
/// after. Never returns.
[[noreturn]] void run_persistent_child(ProtocolTarget& target,
                                       std::uint8_t* segment,
                                       const ShimFaultPlan& plan) {
  const std::uint32_t budget = ctl_load(segment).budget;
  // Per-slot dirty lists, paired with first-use flags: a slot is fully
  // zeroed the first time THIS child serves it (establishing "empty list
  // == all-zero map" whatever an earlier child left behind), and
  // sparse-cleared on every later iteration. Clearing lazily — instead of
  // the server wiping all slots at fork — matters with pipelining: at a
  // recycle boundary the client may not yet have read the previous
  // child's final slots, and the window protocol only guarantees a slot's
  // reply has been consumed before a NEW request lands on that slot.
  static cov::DirtyWordList dirty[kNumSlots];
  static bool slot_used[kNumSlots];
  for (cov::DirtyWordList& list : dirty) list.count = 0;
  for (bool& used : slot_used) used = false;
  AuxResult result;

  for (std::uint32_t iteration = 1;; ++iteration) {
    const CtlBlock ctl = ctl_load(segment);
    const std::uint32_t slot = ctl.slot < kNumSlots ? ctl.slot : 0;
    std::uint8_t* slot_base = segment + slot_offset(slot);

    // Fault-plan hooks key off the campaign-global execution index, same
    // semantics as the fork-per-exec path.
    trip_execution_faults(plan, ctl.exec_index);

    // Pristine slot state: full memset on this child's first use of the
    // slot, sparse-clear of the previous iteration's dirty words after
    // that (the in-process begin_execution analogue). Either way the aux
    // magic ends up invalidated, so a crash mid-iteration can never be
    // mistaken for a completed one.
    cov::DirtyWordList& slot_dirty = dirty[slot];
    if (!slot_used[slot]) {
      std::memset(slot_base, 0, cov::kMapSize + kAuxBytes);
      slot_used[slot] = true;
      slot_dirty.count = 0;
    } else {
      auto* words = reinterpret_cast<std::uint64_t*>(slot_base);
      for (std::uint32_t i = 0; i < slot_dirty.count; ++i) {
        words[slot_dirty.indices[i]] = 0;
      }
      slot_dirty.count = 0;
      std::memset(slot_base + kSlotAuxOffset, 0, 4);
    }

    target.reset();
    san::FaultSink::arm();
    cov::begin_trace(slot_base, &slot_dirty);

    result.response.clear();
    target.process_into(slot_load_packet(segment, slot), result.response);
    result.events = cov::tls_event_count;
    cov::end_trace();
    san::FaultSink::disarm_into(result.faults);

    aux_store(slot_base + kSlotAuxOffset, kAuxBytes, result);

    if (iteration >= budget) ::_exit(0);  // budget exhausted: recycle me
    // Iteration complete: stop until the shim SIGCONTs us with the next
    // assignment in the control block.
    ::raise(SIGSTOP);
  }
}

/// Shim-side bookkeeping for the persistent child.
struct PersistentChild {
  pid_t pid = -1;
  std::uint32_t iteration = 0;  ///< executions served by this child
  std::uint32_t budget = 0;

  [[nodiscard]] bool alive() const { return pid > 0; }
};

/// SIGKILLs and reaps a (possibly stopped) persistent child — shutdown
/// and server-retirement hygiene so no stopped process outlives the shim.
void kill_persistent_child(PersistentChild& child) {
  if (!child.alive()) return;
  ::kill(child.pid, SIGKILL);
  int wstatus = 0;
  while (::waitpid(child.pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  child.pid = -1;
}

}  // namespace

ShimFaultPlan shim_fault_plan_from_env() {
  ShimFaultPlan plan;
  plan.no_handshake = env_u64("ICSFUZZ_SHIM_NO_HANDSHAKE") != 0;
  plan.kill_child_at = env_u64("ICSFUZZ_SHIM_KILL_CHILD_AT");
  plan.segv_at = env_u64("ICSFUZZ_SHIM_SEGV_AT");
  plan.hang_at = env_u64("ICSFUZZ_SHIM_HANG_AT");
  plan.oom_at = env_u64("ICSFUZZ_SHIM_OOM_AT");
  plan.server_exit_at = env_u64("ICSFUZZ_SHIM_SERVER_EXIT_AT");
  plan.server_retire_after = env_u64("ICSFUZZ_SHIM_SERVER_RETIRE_AFTER");
  return plan;
}

void trip_execution_faults(const ShimFaultPlan& plan, std::uint64_t index) {
  if (plan.kill_child_at != 0 && index == plan.kill_child_at) {
    ::raise(SIGKILL);
  }
  if (plan.segv_at != 0 && index == plan.segv_at) ::raise(SIGSEGV);
  if (plan.hang_at != 0 && index == plan.hang_at) {
    for (;;) ::pause();
  }
  if (plan.oom_at != 0 && index == plan.oom_at) exhaust_memory();
}

ShmSegment attach_announced_segment(std::size_t min_bytes) {
  constexpr std::uint64_t kMaxShmBytes = std::uint64_t{1} << 30;
  const char* name = std::getenv(kShmNameEnv);
  const char* size_text = std::getenv(kShmSizeEnv);
  const std::optional<std::uint64_t> size =
      size_text != nullptr ? parse_u64(size_text) : std::nullopt;
  if (name == nullptr || !size || *size < min_bytes || *size > kMaxShmBytes) {
    return ShmSegment();
  }
  return ShmSegment::attach(name, static_cast<std::size_t>(*size));
}

int run_shim_server(ProtocolTarget& target, const ShimFaultPlan& plan) {
  ShmSegment segment = attach_announced_segment(kSegmentBytesV2);
  if (!segment.valid()) {
    // Not spawned by a fork server (or handed a bad segment); exiting
    // without the hello makes the client report a handshake failure with
    // this code visible in ps/logs.
    return 3;
  }
  if (plan.no_handshake) return 7;

  install_deadline_handler();
  const std::uint32_t hello[2] = {kHelloMagicV2, kCapPersistent};
  if (!write_full(kStFd, hello, sizeof(hello))) return 4;

  // The jail travels from the fuzzing parent as environment variables and
  // is applied inside every forked execution child — never in this server
  // process, which must stay alive across jail-killed children.
  const supervise::ResourceJail jail = supervise::jail_from_env();

  Bytes packet;
  PersistentChild persistent;
  std::uint64_t exec_index = 0;
  for (;;) {
    // Request header: [u32 timeout_ms][u32 control][u32 packet_len].
    std::uint32_t header[3] = {0, 0, 0};
    if (!read_full(kCtlFd, header, sizeof header)) {
      kill_persistent_child(persistent);
      return 0;  // EOF: clean shutdown
    }
    const std::uint32_t timeout_ms = header[0];
    const std::uint32_t control = header[1];
    const std::uint32_t length = header[2];
    packet.resize(length);
    if (length != 0 && !read_full(kCtlFd, packet.data(), length)) return 0;

    ++exec_index;
    if (plan.server_exit_at != 0 && exec_index == plan.server_exit_at) {
      return 9;  // simulated fork-server crash
    }

    std::int32_t wire_status = 0;
    std::uint32_t flags = 0;
    std::uint32_t iteration = 0;
    bool timed_out = false;

    if ((control & kCtlPersistent) != 0) {
      // -- Persistent iteration. ------------------------------------------
      const std::uint32_t slot = control_slot(control);
      std::uint32_t budget = control_budget(control);
      if (budget == 0) budget = 1;
      const bool fresh = !persistent.alive();
      ctl_store(segment.data(),
                CtlBlock{slot, fresh ? budget : persistent.budget,
                         exec_index});
      if (fresh) {
        // The child zeroes each slot on its own first use (see
        // run_persistent_child): wiping all slots here would destroy
        // results the pipelined client has not read yet.
        const pid_t child = ::fork();
        if (child < 0) return 5;
        if (child == 0) {
          supervise::apply_in_child(jail);
          run_persistent_child(target, segment.data(), plan);
        }
        persistent = PersistentChild{child, 1, budget};
      } else {
        ++persistent.iteration;
        ::kill(persistent.pid, SIGCONT);
      }

      const int wstatus = await_child(persistent.pid, timeout_ms,
                                      /*wait_stops=*/true, timed_out);
      iteration = persistent.iteration;
      flags = kReplyPersistent;
      wire_status = static_cast<std::int32_t>(wstatus);
      if (timed_out) {
        flags |= kReplyTimedOut | encode_recycle(RecycleReason::kHang);
        persistent.pid = -1;  // killed and reaped by await_child
      } else if (WIFSTOPPED(wstatus)) {
        wire_status = 0;  // iteration complete, child healthy
      } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0 &&
                 persistent.iteration >= persistent.budget) {
        // Orderly budget exhaustion: the execution completed (aux block
        // published) and the child retired itself.
        wire_status = 0;
        flags |= encode_recycle(RecycleReason::kBudget);
        persistent.pid = -1;
      } else {
        // Crash: signal, abnormal exit, or an exit-0 before the budget
        // (the target pulled the child down mid-loop).
        flags |= encode_recycle(RecycleReason::kCrash);
        persistent.pid = -1;
      }
    } else {
      // -- Fork-per-exec (control 0).
      //
      // Pristine fork-per-exec region for the child: the map invariant
      // (all words zero) and a magic-less aux block, whatever the previous
      // child left behind. The slot region keeps its own invariants (each
      // persistent child re-zeroes a slot on first use), so only this
      // region is touched here.
      std::memset(segment.data(), 0, kSegmentBytes);

      const pid_t child = ::fork();
      if (child < 0) return 5;
      if (child == 0) {
        supervise::apply_in_child(jail);
        trip_execution_faults(plan, exec_index);
        run_child(target, segment.data(), packet);
      }

      // The shim enforces the wall-clock deadline itself: it is the
      // child's parent, so between here and a successful waitpid the pid
      // provably belongs to this child and the SIGKILL can never hit a
      // recycled pid. A child that finishes right at the boundary is
      // reaped normally and reported as completed, not as a hang.
      const int wstatus = await_child(child, timeout_ms,
                                      /*wait_stops=*/false, timed_out);
      wire_status = static_cast<std::int32_t>(wstatus);
      if (timed_out) flags |= kReplyTimedOut;
    }

    const std::uint32_t reply[3] = {static_cast<std::uint32_t>(wire_status),
                                    flags, iteration};
    if (!write_full(kStFd, reply, sizeof reply)) return 6;

    if (plan.server_retire_after != 0 &&
        exec_index >= plan.server_retire_after) {
      // Orderly retirement: the reply above completed this execution, so
      // the client loses nothing — its next request sees EOF plus our
      // exit status 0 and respawns without charging a lost server.
      kill_persistent_child(persistent);
      return 0;
    }
  }
}

}  // namespace icsfuzz::oop
