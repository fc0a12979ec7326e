// TCP session transport backend (BackendKind::kTcp) — drives an external
// `icsfuzz-shim-target --tcp` session server over a real loopback socket.
//
// Per execution: the session stream is split into its canonical message
// list (framing.hpp — the same split the server's reassembler will
// reproduce from the segmented TCP stream), one connection is opened
// (one connection = one session), and each message is sent and its
// response read back in lockstep through the session_wire.hpp sync block.
// The server traces the whole session into the shared-memory map; the
// client adopts it (CoverageMap::adopt_external), injects the
// client-computed session-state cells, and runs the exact in-process
// analysis — which is what makes in-process vs over-TCP execution a
// differential oracle (tests/test_session.cpp).
//
// The server process is an oop::TargetProcess, so kTcp keeps the same
// supervision contract as the fork-server backends: RetryPolicy respawns,
// the resource jail, group kill by the watchdog, and telemetry booked
// through fuzz::mirror_oop_telemetry. A server that dies mid-session is
// classified by its wait status (docs/SESSIONS.md lists every outcome).
#pragma once

#include <memory>

#include "fuzzer/exec_backend.hpp"

namespace icsfuzz::session {

std::unique_ptr<fuzz::ExecBackend> make_tcp_session_backend(
    const fuzz::ExecBackendConfig& config, bool dense_reference,
    telem::Sink telemetry);

}  // namespace icsfuzz::session
