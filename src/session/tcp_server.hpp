// Loopback TCP session server — the `icsfuzz-shim-target --tcp` mode.
//
// The in-tree hermetic stand-in for a real networked ICS server: binds an
// ephemeral 127.0.0.1 port, announces it through the session hello on the
// inherited status descriptor (exec_protocol.hpp::kTcpHelloMagic), and
// serves one *session* per accepted connection — reassembling the request
// stream with the per-protocol framing (reassembler.hpp), feeding each
// complete message (and the final residue, if any) to the wrapped
// ProtocolTarget, and answering with the raw response bytes. Coverage for
// the whole session lands in the shared-memory map as ONE trace; progress
// and completion are published through the session_wire.hpp sync block.
//
// Shutdown mirrors the fork server: EOF on the inherited control
// descriptor (the client closing its pipe end) ends the accept loop with
// exit status 0. The server runs every session in its own process, so the
// resource jail and the shim fault plan (shim_runner.hpp, keyed on the
// session index) apply to the server itself; the client classifies a
// server that dies mid-session by its wait status.
#pragma once

#include "exec_oop/shim_runner.hpp"
#include "protocols/protocol_target.hpp"
#include "session/session_types.hpp"

namespace icsfuzz::session {

/// Runs the accept loop until control-pipe EOF. Exit codes match
/// oop::run_shim_server's conventions: 0 orderly shutdown, 3 segment
/// attach failure, 4 hello write failure, 8 socket setup failure, 9 the
/// plan's server_exit_at.
int run_tcp_session_server(ProtocolTarget& target, Framing framing,
                           const oop::ShimFaultPlan& plan);

}  // namespace icsfuzz::session
