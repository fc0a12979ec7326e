#include "session/session_backend.hpp"

#include <cassert>

#include "coverage/instrument.hpp"
#include "session/framing.hpp"
#include "session/session_state.hpp"

namespace icsfuzz::session {

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
    split_stream(options_.framing, packet, ranges_);

    // One reset + one trace for the WHOLE session: server state carries
    // across messages, which is the entire point of the session layer.
    target.reset();
    san::FaultSink::arm();
    map.begin_execution();

    result.response.clear();
    result.session_states.clear();
    if (options_.record_traffic) traffic_.clear();
    std::uint32_t state = kInitialSessionState;
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      const ByteSpan message =
          packet.subspan(ranges_[i].offset, ranges_[i].length);
      response_scratch_.clear();
      // Tripped = the server process died on its first fault; remaining
      // messages of the session go unanswered (the TCP server applies the
      // identical guard).
      if (!san::FaultSink::tripped()) {
        target.process_into(message, response_scratch_);
      }
      append(result.response, ByteSpan(response_scratch_));
      state = next_session_state(
          state, classify_response(options_.framing,
                                   ByteSpan(response_scratch_)), i);
      result.session_states.push_back(state);
      if (options_.record_traffic) {
        traffic_.requests.emplace_back(message.begin(), message.end());
        traffic_.responses.push_back(response_scratch_);
      }
    }
    if (options_.state_coverage) {
      for (const std::uint32_t s : result.session_states) {
        map.bump_trace_cell(session_state_cell(s));
      }
    }
    result.session_messages = static_cast<std::uint32_t>(ranges_.size());
    result.response_truncated = false;

    const cov::TraceSummary summary = map.finalize_execution();
    result.events = cov::tls_event_count;
    san::FaultSink::disarm_into(result.faults);
    return summary;
  }

 private:
  SessionOptions options_;
  std::vector<MessageRange> ranges_;
  Bytes response_scratch_;
  SessionTraffic traffic_;
};

}  // namespace

std::unique_ptr<fuzz::ExecBackend> make_in_process_session_backend(
    const fuzz::ExecBackendConfig& config) {
  return std::make_unique<InProcessSessionBackend>(config.session);
}

}  // namespace icsfuzz::session
