// The session execution path shared by both session arms, and the
// in-process session backend — the reference arm of the session
// differential oracle.
//
// A session stream becomes messages, responses and an ExecResult in three
// steps, each coded once:
//   * split_stream (framing.hpp) turns the stream into its message list;
//   * serve_messages runs the messages against the target — inside the
//     in-process backend, and inside the shim's `--tcp` server
//     (tcp_server.hpp) on the far end of the kTcp transport;
//   * fold_session turns the per-message responses into the session
//     observables — in the in-process backend, and in the kTcp client
//     (tcp_backend.hpp) once it has split the reply stream by the
//     server's response-length log.
// The in-process vs over-TCP oracle therefore runs the same split, serve
// and fold code on both arms. make_exec_backend routes kInProcess
// configurations with SessionOptions::framing != kNone to the in-process
// backend: one target reset, one coverage trace, every message in order.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fuzzer/exec_backend.hpp"
#include "session/framing.hpp"

namespace icsfuzz::session {

/// Serves one session's messages in order: message i of `stream` (at
/// `messages[i]`) goes through target.process_into, and its response is
/// appended to `replies` with its range recorded as `responses[i]`. Once
/// the fault sink has tripped — the server process died on its first
/// fault — later messages go unanswered (empty responses). `replies` and
/// `responses` are cleared first; `scratch` is the reused per-message
/// response buffer. The caller resets the target and arms the fault sink
/// and the trace.
void serve_messages(ProtocolTarget& target, ByteSpan stream,
                    std::span<const MessageRange> messages, Bytes& scratch,
                    Bytes& replies, std::vector<MessageRange>& responses);

/// Folds a served session into `result`: the chain of session states, one
/// per message from its response class (session_state.hpp), their
/// state-coverage cells in `map`, and session_messages. With
/// options.record_traffic, `traffic` receives each message and its
/// response. `responses[i]` is message i's response inside `replies`; an
/// empty `messages` folds a session that never ran.
void fold_session(const SessionOptions& options, ByteSpan stream,
                  std::span<const MessageRange> messages, ByteSpan replies,
                  std::span<const MessageRange> responses,
                  cov::CoverageMap& map, fuzz::ExecResult& result,
                  SessionTraffic& traffic);

std::unique_ptr<fuzz::ExecBackend> make_in_process_session_backend(
    const fuzz::ExecBackendConfig& config);

}  // namespace icsfuzz::session
