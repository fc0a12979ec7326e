// Target-side half of the fork-server protocol: the request loop the shim
// binary (tools/icsfuzz_shim_target.cpp) runs around an instrumented
// ProtocolTarget.
//
// Kept in the library so the protocol has exactly one implementation on
// each side — the executor's client in fork_server.cpp, this server loop
// here — and so future real-target harnesses can reuse it by linking
// against their own ProtocolTarget.
//
// The shim speaks exec_protocol.hpp and advertises the persistent
// capability: fork-per-exec requests (control == 0) fork one child per
// execution, while persistent requests run K executions per child through
// an ICSFUZZ_LOOP-style loop — the child raises SIGSTOP between iterations
// (the AFL persistent-mode convention), the shim SIGCONTs it per request,
// and the child is re-forked automatically after a crash, a deadline kill,
// or budget exhaustion.
#pragma once

#include <cstddef>
#include <cstdint>

#include "exec_oop/shm_segment.hpp"
#include "protocols/protocol_target.hpp"

namespace icsfuzz::oop {

/// Deterministic fault-injection knobs, parsed from the environment by the
/// shim binary (tests drive the out-of-process failure surface with these;
/// all default to "off"). Execution indices are 1-based. The `--tcp`
/// session server honours kill_child_at, segv_at, hang_at, oom_at and
/// server_exit_at keyed on the session index, applied to itself — it is
/// the process serving the session.
struct ShimFaultPlan {
  /// Exit (code 7) before writing the hello — a target that never
  /// handshakes.
  bool no_handshake = false;
  /// On execution #N the (forked or persistent) child SIGKILLs itself
  /// mid-execution.
  std::uint64_t kill_child_at = 0;
  /// On execution #N the child raises SIGSEGV — a genuine memory-fault
  /// signal, so differential tests can compare the shim's crash
  /// classification bit-for-bit against a real segfaulting binary
  /// (kill_child_at's SIGKILL is indistinguishable from a deadline kill).
  std::uint64_t segv_at = 0;
  /// On execution #N the child hangs forever (the executor's wall-clock
  /// deadline must reap it).
  std::uint64_t hang_at = 0;
  /// On execution #N the child allocates until the resource jail's
  /// new_handler fires — the kOom classification path (pair with an
  /// ICSFUZZ_JAIL_AS_MB cap; an unjailed child exits through the marker
  /// code after a bounded number of untouched allocations).
  std::uint64_t oom_at = 0;
  /// Before serving execution #N the server process itself exits (code 9)
  /// — a crashed fork server the executor must respawn. The TCP server
  /// exits on accepting session #N, so the client sees it die mid-session.
  std::uint64_t server_exit_at = 0;
  /// After serving N executions the server exits 0 — an ORDERLY
  /// retirement (periodic server recycling) the client must distinguish
  /// from a lost server. 0 disables.
  std::uint64_t server_retire_after = 0;
};

/// Reads the ICSFUZZ_SHIM_* fault-injection variables.
ShimFaultPlan shim_fault_plan_from_env();

/// Fires the plan's per-execution hooks (kill_child_at, segv_at, hang_at,
/// oom_at) that match `index`, in the calling process. Returns only when
/// none matched.
void trip_execution_faults(const ShimFaultPlan& plan, std::uint64_t index);

/// Target-side attach of the segment the spawning client announced through
/// the ICSFUZZ_OOP_SHM pair (exec_protocol.hpp). The size comes from
/// whatever spawned us, so it gets the distrust of network input: a strict
/// decimal parse (no strtoull garbage-as-0 or trailing junk), a floor of
/// `min_bytes` (the layout the caller writes to) and a 1 GiB ceiling, so a
/// corrupt value cannot turn the mmap into an address-space grab. Both
/// shim modes attach through it; an invalid segment means "refuse".
ShmSegment attach_announced_segment(std::size_t min_bytes);

/// Attaches the shm segment named by the environment (exec_protocol.hpp),
/// writes the hello, and serves run requests on the protocol descriptors
/// until the control pipe closes. Returns the process exit code.
int run_shim_server(ProtocolTarget& target, const ShimFaultPlan& plan);

}  // namespace icsfuzz::oop
