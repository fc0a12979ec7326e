#include "fuzzer/executor.hpp"

#include <algorithm>

#include "exec_oop/oop_executor.hpp"

namespace icsfuzz::fuzz {

Executor::Executor(ExecutorConfig config)
    : config_(std::move(config)),
      backend_(make_exec_backend(config_.backend, config_.telemetry)) {
  map_.use_kernel(config_.coverage_kernel);
}

Executor::~Executor() = default;
Executor::Executor(Executor&&) noexcept = default;
Executor& Executor::operator=(Executor&&) noexcept = default;

const ExecResult& Executor::run(ProtocolTarget& target, ByteSpan packet) {
  run_into(target, packet, scratch_);
  return scratch_;
}

void Executor::run_into(ProtocolTarget& target, ByteSpan packet,
                        ExecResult& result) {
  submit(target, packet);
  complete_into(result);
}

void Executor::complete_into(ExecResult& result) {
  ++executions_;
  const cov::TraceSummary summary = backend_->complete(map_, result);
  finish_result(summary, result);
}

void Executor::run_batch(
    ProtocolTarget& target, const std::vector<Bytes>& packets,
    const std::function<void(std::size_t, const ExecResult&)>& on_result) {
  std::size_t submitted = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    for (; submitted < packets.size() && submitted - i < window_depth();
         ++submitted) {
      submit(target, ByteSpan(packets[submitted]));
    }
    complete_into(scratch_);
    on_result(i, scratch_);
  }
}

/// Shared tail of every backend: the deterministic hang budget and the
/// summary/new-path assignments. One implementation, so the arms of the
/// in-process/out-of-process differential oracle cannot drift.
void Executor::finish_result(const cov::TraceSummary& summary,
                             ExecResult& result) {
  if (result.faults.empty() && result.events > config_.hang_event_budget) {
    result.faults.push_back(san::FaultReport{
        san::FaultKind::Hang, san::site_id("executor-hang-budget"),
        "execution exceeded " + std::to_string(config_.hang_event_budget) +
            " instrumentation events"});
  }
  result.trace_hash = summary.trace_hash;
  result.trace_edges = summary.trace_edges;
  result.new_coverage = summary.new_coverage;
  result.new_path = paths_.record(summary.trace_hash);
  if (result.session_messages != 0) {
    std::uint64_t fresh = 0;
    for (const std::uint32_t state : result.session_states) {
      if (session_states_.insert(state).second) ++fresh;
    }
    if (config_.telemetry.enabled()) {
      config_.telemetry.add(telem::Counter::kSessionsExecuted);
      config_.telemetry.add(telem::Counter::kSessionMessages,
                            result.session_messages);
      if (fresh > 0) {
        config_.telemetry.add(telem::Counter::kSessionNewStates, fresh);
      }
    }
  }
}

std::vector<std::uint64_t> Executor::session_states_snapshot() const {
  std::vector<std::uint64_t> out(session_states_.begin(),
                                 session_states_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void Executor::reset_campaign() {
  map_.reset_accumulated();
  paths_.clear();
  executions_ = 0;
  session_states_.clear();
}

void Executor::restore_campaign(
    std::uint64_t executions, const std::uint8_t* accumulated,
    const std::vector<std::uint64_t>& path_hashes,
    const std::vector<std::uint64_t>& session_states) {
  reset_campaign();
  executions_ = executions;
  if (accumulated != nullptr) map_.merge_accumulated(accumulated);
  for (const std::uint64_t hash : path_hashes) paths_.record(hash);
  for (const std::uint64_t state : session_states) {
    session_states_.insert(static_cast<std::uint32_t>(state));
  }
}

}  // namespace icsfuzz::fuzz
