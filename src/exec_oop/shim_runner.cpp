#include "exec_oop/shim_runner.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
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

/// Exit codes a child uses to hand a server-level fault-plan hook to the
/// shim, which never sees an execution: the child that reads execution
/// index N is the first to know. The shim honours them only while the
/// matching knob is set.
constexpr int kChildServerExit = 94;    ///< server_exit_at: shim exits 9
constexpr int kChildServerRetire = 95;  ///< server_retire_after: exits 0

/// The child's ICSFUZZ_LOOP: up to `budget` executions in one process, one
/// per request handed over through the handoff block. Each iteration
/// claims the next request, restores its slot's map invariant with a
/// sparse clear (its own per-slot dirty list — nobody else writes a slot's
/// map while this child serves it), runs the target, publishes the slot's
/// dirty-word list and aux block and completes the request. The first
/// iteration runs `piped` instead of the slot's packet when the request's
/// packet rode the control pipe, and slot `clean` (kNumSlots: none) starts
/// with its map zeroed (ExecChild::clear_next_map). After the final
/// iteration it _exit(0)s — the budget recycle. Never returns.
[[noreturn]] void run_child(ProtocolTarget& target, std::uint8_t* segment,
                            std::uint32_t budget, const ShimFaultPlan& plan,
                            const Bytes& piped, std::uint32_t clean) {
  HandoffBlock& block = handoff_block(segment);
  // Per-slot dirty lists, paired with first-use flags: a slot is fully
  // zeroed the first time THIS child serves it (establishing "empty list
  // == all-zero map" whatever an earlier child left behind), and
  // sparse-cleared on every later iteration. Clearing lazily — instead of
  // the server wiping all slots at fork — matters with pipelining: at a
  // recycle boundary the client may not yet have read the previous
  // child's final slots, and the handoff only guarantees a slot's result
  // has been consumed before a NEW request lands on that slot. Only
  // children write these statics, and each enters here once, so they
  // start zeroed — touching them costs a fresh child page faults.
  static cov::DirtyWordList dirty[kNumSlots];
  static bool slot_used[kNumSlots];
  if (clean < kNumSlots) slot_used[clean] = true;
  AuxResult result;

  std::uint32_t request = shared_load(block.claimed);
  for (std::uint32_t iteration = 1;; ++iteration) {
    child_claim(block, ++request);
    const std::uint32_t slot = request_slot(block, request);
    std::uint8_t* slot_base = segment + slot_offset(slot);

    // Fault-plan hooks key off the client's per-server execution index.
    const std::uint64_t index = handoff_record(block, request).exec_index;
    if (plan.server_exit_at != 0 && index == plan.server_exit_at) {
      ::_exit(kChildServerExit);
    }

    // Pristine slot state: the aux magic and the dirty-word list
    // invalidated first, so a crash mid-iteration can never be mistaken
    // for a completed one; then the map fully zeroed on this child's first
    // use of the slot, sparse-cleared of the previous iteration's dirty
    // words after that (the in-process begin_execution analogue). Only the
    // magic of the aux block: aux_store bounds every later read, and each
    // page of the shared slot costs a fresh child a fault.
    slot_invalidate_result(segment, slot);
    cov::DirtyWordList& slot_dirty = dirty[slot];
    if (!slot_used[slot]) {
      std::memset(slot_base, 0, cov::kMapSize);
      slot_used[slot] = true;
    } else {
      auto* words = reinterpret_cast<std::uint64_t*>(slot_base);
      for (std::uint32_t i = 0; i < slot_dirty.count; ++i) {
        words[slot_dirty.indices[i]] = 0;
      }
    }
    slot_dirty.count = 0;
    // The execution faults trip on the prepared slot, like a target that
    // dies inside its execution.
    trip_execution_faults(plan, index);

    // Same arming order as the in-process Executor::run_into — reset,
    // fault sink, then tracing — so an instrumented reset() contributes to
    // neither the map nor the event count in either mode (the differential
    // oracle depends on this symmetry, not on reset() happening to be
    // uninstrumented).
    target.reset();
    san::FaultSink::arm();
    cov::begin_trace(slot_base, &slot_dirty);

    result.response.clear();
    const ByteSpan packet = iteration == 1 && !piped.empty()
                                ? ByteSpan(piped)
                                : slot_load_packet(segment, slot);
    target.process_into(packet, result.response);
    result.events = cov::tls_event_count;
    cov::end_trace();
    san::FaultSink::disarm_into(result.faults);

    dirty_list_store(slot_base + kSlotDirtyListOffset, slot_dirty.indices,
                     slot_dirty.count);
    aux_store(slot_base + kSlotAuxOffset, kAuxBytes, result);
    child_complete(block, request, iteration);

    if (plan.server_retire_after != 0 && index >= plan.server_retire_after) {
      ::_exit(kChildServerRetire);
    }
    if (iteration >= budget) ::_exit(0);  // budget exhausted: recycle me
  }
}

/// The shim's exit code for a reaped child's fault-plan exit (see
/// kChildServerExit), -1 to keep serving.
int fault_plan_exit(const ShimFaultPlan& plan, int wstatus) {
  const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  if (plan.server_exit_at != 0 && code == kChildServerExit) {
    return 9;  // simulated fork-server crash
  }
  if (plan.server_retire_after != 0 && code == kChildServerRetire) {
    return 0;  // orderly retirement after the child's last execution
  }
  return -1;
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

  const std::uint32_t hello[2] = {kHelloMagicV2, kCapPersistent};
  if (!write_full(kStFd, hello, sizeof(hello))) return 4;

  // The jail travels from the fuzzing parent as environment variables and
  // is applied inside every forked execution child — never in this server
  // process, which must stay alive across jail-killed children.
  const supervise::ResourceJail jail = supervise::jail_from_env();
  HandoffBlock& block = handoff_block(segment.data());

  Bytes piped;  // a packet too large for a slot, from its kFork
  std::uint32_t budget = 1;  // the K of the client's last plain kFork
  ExecChild child;
  for (;;) {
    // Sleep until the client asks for something or the child dies;
    // executions themselves never pass through here.
    struct pollfd fds[2] = {{kCtlFd, POLLIN, 0}, {child.pidfd(), POLLIN, 0}};
    if (::poll(fds, child.alive() ? 2 : 1, -1) < 0) {
      if (errno == EINTR) continue;
      return 6;
    }
    std::uint32_t fork_budget = 0;  // nonzero: fork a child now
    if (child.alive() && fds[1].revents != 0) {
      const int wstatus = child.reap();
      const int code = fault_plan_exit(plan, wstatus);
      if (code >= 0) return code;
      child.publish_death(block, wstatus);
      if (ExecChild::requests_pending(block)) fork_budget = budget;
    } else if (fds[0].revents != 0) {
      Request request;
      if (!read_request(request, piped)) {
        child.kill();
        return 0;  // EOF: clean shutdown
      }
      if (request.op == Op::kFork && piped.empty()) {
        budget = std::max(request.arg, 1u);
        fork_budget = budget;
      } else if (request.op == Op::kFork) {
        const int code = fault_plan_exit(plan, child.retire_and_post(block));
        if (code >= 0) return code;
        fork_budget = 1;
      } else if (request.op == Op::kKill) {
        const std::int32_t wstatus =
            child.kill_for_deadline(block, request.arg);
        if (!write_full(kStFd, &wstatus, sizeof wstatus)) return 6;
        if (ExecChild::requests_pending(block)) fork_budget = budget;
      } else {
        return 6;  // not a request this protocol knows
      }
    }
    if (fork_budget != 0 && !child.alive()) {
      const std::uint32_t clean =
          ExecChild::clear_next_map(block, segment.data());
      const int forked = child.fork(block);
      if (forked < 0) return 5;
      if (forked == 0) {
        supervise::apply_in_child(jail);
        run_child(target, segment.data(), fork_budget, plan, piped, clean);
      }
      piped.clear();
    }
  }
}

}  // namespace icsfuzz::oop
