// Loopback TCP session server — the `icsfuzz-shim-target --tcp` mode.
//
// The in-tree hermetic stand-in for a real networked ICS server: binds an
// ephemeral 127.0.0.1 port, announces it through the session hello on the
// inherited status descriptor (exec_protocol.hpp::kTcpHelloMagic), and
// serves one *session* per accepted connection. It reads the request
// stream to EOF (the client sends the whole session and half-closes),
// keeping the considered prefix of at most kMaxSessionStreamBytes, splits
// it with split_stream (framing.hpp), serves the messages through the same
// per-message loop as the in-process session backend (serve_messages,
// session_backend.hpp), and answers with the raw response bytes of every
// message in one write.
//
// A session is an ordinary fork-server request (session/session_wire.hpp)
// that this server serves itself: at accept it claims the request the
// client posted for the connection and readies its slot, traces the whole
// session into the slot's map as ONE trace, logs every response's length
// in the slot's response-length log, publishes the slot, and completes the
// request — the handoff record's done, then the client's wake — before it
// closes the connection, so a client that reads EOF finds the session
// complete. A connection accepted with no request posted is served
// untraced. The lifecycle is the shared target runtime's oop::SlotLifecycle
// (exec_oop/target_runtime.hpp), which the preload runtime's tcp mode runs
// around a stock server too; this adapter owns only the socket loop and
// the traced ProtocolTarget.
//
// Shutdown mirrors the fork server: EOF on the inherited control
// descriptor (the client closing its pipe end) ends the accept loop with
// exit status 0. The server runs every session in its own process, so the
// resource jail and the fault plan (keyed on the session's exec_index)
// apply to the server itself; the client classifies a server that dies mid-session
// by its wait status.
#pragma once

#include "exec_oop/target_runtime.hpp"
#include "protocols/protocol_target.hpp"
#include "session/session_types.hpp"

namespace icsfuzz::session {

/// Runs the accept loop until control-pipe EOF. Exit codes match
/// oop::run_shim_server's conventions: 0 orderly shutdown, 3 segment
/// attach failure, 4 hello write failure, 8 socket setup failure, 9 the
/// plan's server_exit_at.
int run_tcp_session_server(ProtocolTarget& target, Framing framing,
                           const oop::FaultPlan& plan);

}  // namespace icsfuzz::session
