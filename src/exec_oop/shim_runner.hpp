// The shim's fork server: the in-tree adapter that serves an instrumented
// ProtocolTarget (tools/icsfuzz_shim_target.cpp) over exec_protocol.hpp.
//
// The request loop, the slot lifecycle, the fault plan and the segment
// attach are the shared target runtime's (target_runtime.hpp), which the
// preload runtime runs too; what is the shim's own is only the execution
// itself: the target traced by cov::hit, with san::FaultSink faults, in
// the in-process Executor's arming order — the in-process vs
// out-of-process oracle depends on that symmetry.
//
// The shim advertises the persistent capability: every execution runs in
// a forked child that loops up to K executions (K = 1 is fork-per-exec),
// taking each request straight from the client through the handoff
// block's futex words, while the server sleeps.
#pragma once

#include "exec_oop/target_runtime.hpp"
#include "protocols/protocol_target.hpp"

namespace icsfuzz::oop {

/// Attaches the shm segment named by the environment, writes the hello,
/// and serves requests on the protocol descriptors until the control pipe
/// closes (serve_fork_requests). Returns 3 when there is no usable
/// segment; every other exit leaves through serve_fork_requests.
int run_shim_server(ProtocolTarget& target, const FaultPlan& plan);

}  // namespace icsfuzz::oop
