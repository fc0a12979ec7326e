#include "session/session_backend.hpp"

#include <cassert>

#include "coverage/instrument.hpp"
#include "session/session_state.hpp"

namespace icsfuzz::session {

void serve_messages(ProtocolTarget& target, ByteSpan stream,
                    std::span<const MessageRange> messages, Bytes& scratch,
                    Bytes& replies, std::vector<MessageRange>& responses) {
  replies.clear();
  responses.clear();
  for (const MessageRange& message : messages) {
    scratch.clear();
    if (!san::FaultSink::tripped()) {
      target.process_into(stream.subspan(message.offset, message.length),
                          scratch);
    }
    responses.push_back(MessageRange{replies.size(), scratch.size()});
    append(replies, ByteSpan(scratch));
  }
}

void fold_session(const SessionOptions& options, ByteSpan stream,
                  std::span<const MessageRange> messages, ByteSpan replies,
                  std::span<const MessageRange> responses,
                  cov::CoverageMap& map, fuzz::ExecResult& result,
                  SessionTraffic& traffic) {
  result.session_states.clear();
  if (options.record_traffic) traffic.clear();
  std::uint32_t state = kInitialSessionState;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const ByteSpan request =
        stream.subspan(messages[i].offset, messages[i].length);
    const ByteSpan response =
        replies.subspan(responses[i].offset, responses[i].length);
    state = next_session_state(
        state, classify_response(options.framing, response), i);
    result.session_states.push_back(state);
    map.bump_trace_cell(session_state_cell(state));
    if (options.record_traffic) {
      traffic.requests.emplace_back(request.begin(), request.end());
      traffic.responses.emplace_back(response.begin(), response.end());
    }
  }
  result.session_messages = static_cast<std::uint32_t>(messages.size());
}

namespace {

class InProcessSessionBackend final : public fuzz::SyncExecBackend {
 public:
  explicit InProcessSessionBackend(const SessionOptions& options)
      : options_(options) {}

  [[nodiscard]] fuzz::BackendKind kind() const override {
    return fuzz::BackendKind::kInProcess;
  }

  [[nodiscard]] const SessionTraffic* traffic() const override {
    return options_.record_traffic ? &traffic_ : nullptr;
  }

  cov::TraceSummary execute(ProtocolTarget& target, ByteSpan packet,
                            cov::CoverageMap& map,
                            fuzz::ExecResult& result) override {
    assert(!cov::trace_armed());
    split_stream(options_.framing, packet, messages_);

    // One reset + one trace for the WHOLE session: server state carries
    // across messages, which is the entire point of the session layer.
    target.reset();
    san::FaultSink::arm();
    map.begin_execution();

    serve_messages(target, packet, messages_, scratch_, result.response,
                   responses_);
    fold_session(options_, packet, messages_, ByteSpan(result.response),
                 responses_, map, result, traffic_);
    result.response_truncated = false;

    const cov::TraceSummary summary = map.finalize_execution();
    result.events = cov::tls_event_count;
    san::FaultSink::disarm_into(result.faults);
    return summary;
  }

 private:
  SessionOptions options_;
  std::vector<MessageRange> messages_;
  std::vector<MessageRange> responses_;
  Bytes scratch_;
  SessionTraffic traffic_;
};

}  // namespace

std::unique_ptr<fuzz::ExecBackend> make_in_process_session_backend(
    const fuzz::ExecBackendConfig& config) {
  return std::make_unique<InProcessSessionBackend>(config.session);
}

}  // namespace icsfuzz::session
