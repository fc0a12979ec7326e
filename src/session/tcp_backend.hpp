// TCP session transport backend (BackendKind::kTcp) — drives an external
// `icsfuzz-shim-target --tcp` session server over a real loopback socket.
//
// Per execution: the session stream is split into its canonical message
// list (framing.hpp — the same split_stream the server runs on the stream
// it reads to EOF), the session is posted as the next fork-server request
// in slot session::kSessionSlot of the standard segment
// (session_wire.hpp), and one connection is opened (one connection = one
// session). The exchange is pipelined: one poll loop sends the whole
// stream and half-closes while it reads the replies to EOF, then waits for
// the request's handoff record to say done and splits the replies into
// per-message responses by the response-length log the server keeps in
// the slot. There is no per-message round trip.
// The server traces the whole session into the slot's map and publishes
// its dirty-word list; the client adopts the trace from that list
// (fuzz::adopt_oop_trace, the full-map scan when none is published),
// folds the split responses into the result with the in-process
// backend's fold_session (the session-state chain and its cells, traffic,
// session_messages), and runs the exact in-process analysis — which is
// what makes in-process vs over-TCP execution a differential oracle
// (tests/test_session.cpp).
//
// The server process is an oop::TargetProcess, so kTcp keeps the same
// supervision contract as the fork-server backends: RetryPolicy respawns,
// the resource jail, group kill by the watchdog, and telemetry booked
// through fuzz::mirror_oop_telemetry, and the fork-server backend's outcome
// mapping (fuzz::fill_outcome_faults) with kTcp's own deadline and
// lost-server sites. A server that dies mid-session shows up as EOF or a
// reset on the socket and is classified by its wait status
// (docs/SESSIONS.md lists every outcome).
#pragma once

#include <memory>

#include "fuzzer/exec_backend.hpp"

namespace icsfuzz::session {

std::unique_ptr<fuzz::ExecBackend> make_tcp_session_backend(
    const fuzz::ExecBackendConfig& config, telem::Sink telemetry);

}  // namespace icsfuzz::session
