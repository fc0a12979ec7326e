// Loopback TCP session server — the `icsfuzz-shim-target --tcp` mode.
//
// The in-tree hermetic stand-in for a real networked ICS server: binds an
// ephemeral 127.0.0.1 port, announces it through the session hello on the
// inherited status descriptor (exec_protocol.hpp::kTcpHelloMagic), and
// serves one *session* per accepted connection — reassembling the request
// stream with the per-protocol framing (reassembler.hpp), feeding each
// complete message (and the final residue, if any) to the wrapped
// ProtocolTarget, and answering with the raw response bytes. The
// reassembler makes the server indifferent to how the client's stream
// arrives: the pipelined client sends the whole session at once, so
// messages usually arrive coalesced. Coverage for the whole session lands
// in the shared-memory map as ONE trace; every response's length goes into
// the session_wire.hpp response log, and the session-done publish precedes
// the close, so a client that reads EOF finds the session complete.
//
// The session's map lifecycle — fault plan, map clear, response log,
// dirty-word list, aux block, session-done counter — is the shared target
// runtime's oop::SessionMap (exec_oop/target_runtime.hpp), which the
// preload runtime's tcp mode runs around a stock server too; this adapter
// owns only the socket loop and the traced ProtocolTarget.
//
// Shutdown mirrors the fork server: EOF on the inherited control
// descriptor (the client closing its pipe end) ends the accept loop with
// exit status 0. The server runs every session in its own process, so the
// resource jail and the fault plan (keyed on the session index) apply to
// the server itself; the client classifies a server that dies mid-session
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
