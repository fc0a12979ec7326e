// In-process session backend — the reference arm of the session
// differential oracle.
//
// Executes a session stream the way the TCP transport does — split into
// the canonical framed message list, one target reset, one coverage trace,
// each message processed in order with the tripped-sink guard — but
// entirely in-process. make_exec_backend routes kInProcess configurations
// with SessionOptions::framing != kNone here.
#pragma once

#include <memory>

#include "fuzzer/exec_backend.hpp"

namespace icsfuzz::session {

std::unique_ptr<fuzz::ExecBackend> make_in_process_session_backend(
    const fuzz::ExecBackendConfig& config);

}  // namespace icsfuzz::session
