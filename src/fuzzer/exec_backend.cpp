#include "fuzzer/exec_backend.hpp"

#include <cassert>
#include <cstdio>

#include "coverage/instrument.hpp"
#include "exec_oop/oop_executor.hpp"
#include "session/session_backend.hpp"
#include "session/tcp_backend.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::fuzz {

std::string_view to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kInProcess: return "in-process";
    case BackendKind::kForkPerExec: return "fork-per-exec";
    case BackendKind::kPersistent: return "persistent";
    case BackendKind::kTcp: return "tcp";
  }
  return "?";
}

void ExecBackend::execute_batch(
    ProtocolTarget& target, const std::vector<Bytes>& packets,
    cov::CoverageMap& map, ExecResult& scratch,
    const std::function<void(std::size_t, const cov::TraceSummary&,
                             ExecResult&)>& each) {
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const cov::TraceSummary summary =
        execute(target, ByteSpan(packets[i]), map, scratch);
    each(i, summary, scratch);
  }
}

namespace {

/// kInProcess: the ProtocolTarget runs on this thread under the
/// thread-local trace arming — reset, arm, trace, process, finalize.
class InProcessBackend final : public ExecBackend {
 public:
  explicit InProcessBackend(bool dense_reference)
      : dense_(dense_reference) {}

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kInProcess;
  }

  cov::TraceSummary execute(ProtocolTarget& target, ByteSpan packet,
                            cov::CoverageMap& map,
                            ExecResult& result) override {
    // Executions must not nest on a thread: the second begin_execution
    // would silently steal the first one's thread-local trace arming.
    assert(!cov::trace_armed());

    target.reset();
    san::FaultSink::arm();
    if (dense_) {
      map.begin_execution_dense();
    } else {
      map.begin_execution();
    }

    target.process_into(packet, result.response);
    result.response_truncated = false;  // reused-result hygiene
    result.session_states.clear();      // plain exchanges have no session
    result.session_messages = 0;

    // The fused sparse pass (or its dense reference twin) replaces the old
    // end_execution -> trace_hash -> trace_edge_count -> accumulate
    // sequence: one sweep of the dirty words instead of four full-map
    // passes.
    const cov::TraceSummary summary =
        dense_ ? map.finalize_execution_dense() : map.finalize_execution();
    result.events = cov::tls_event_count;
    san::FaultSink::disarm_into(result.faults);
    return summary;
  }

 private:
  bool dense_;
};

/// kForkPerExec / kPersistent: packets cross into the fork-server target
/// through OutOfProcessExecutor; the shm trace is adopted into the owning
/// map (reader-side dirty rebuild) so the analysis downstream of execute()
/// is byte-for-byte the in-process one.
class OopBackend final : public ExecBackend {
 public:
  OopBackend(const ExecBackendConfig& config, bool dense_reference,
             telem::Sink telemetry)
      : kind_(config.kind),
        dense_(dense_reference),
        exec_timeout_ms_(config.exec_timeout_ms),
        telemetry_(telemetry) {
    oop::OopExecutorConfig oop_config;
    oop_config.target_cmd = config.target_cmd;
    oop_config.exec_timeout_ms = config.exec_timeout_ms;
    oop_config.handshake_timeout_ms = config.handshake_timeout_ms;
    oop_config.persistent_budget = config.kind == BackendKind::kPersistent
                                       ? config.persistent_budget
                                       : 0;
    oop_config.retry = config.retry;
    oop_config.jail = config.jail;
    oop_config.preload = config.preload;
    exec_ = std::make_unique<oop::OutOfProcessExecutor>(std::move(oop_config));
  }

  [[nodiscard]] BackendKind kind() const override { return kind_; }

  [[nodiscard]] const oop::OutOfProcessExecutor* oop() const override {
    return exec_.get();
  }

  [[nodiscard]] const oop::TargetProcess* target_process() const override {
    return &exec_->process();
  }

  cov::TraceSummary execute(ProtocolTarget& /*target*/, ByteSpan packet,
                            cov::CoverageMap& map,
                            ExecResult& result) override {
    const oop::TargetProcess::Tallies before = exec_->process().tallies();
    const oop::OutOfProcessExecutor::Outcome& outcome = exec_->run(packet);
    mirror(before, outcome, packet);
    return adopt_and_fill(outcome, map, result);
  }

  void execute_batch(
      ProtocolTarget& /*target*/, const std::vector<Bytes>& packets,
      cov::CoverageMap& map, ExecResult& scratch,
      const std::function<void(std::size_t, const cov::TraceSummary&,
                               ExecResult&)>& each) override {
    oop::TargetProcess::Tallies before = exec_->process().tallies();
    exec_->run_batch(
        packets, [&](std::size_t index,
                     const oop::OutOfProcessExecutor::Outcome& outcome) {
          mirror(before, outcome, ByteSpan(packets[index]));
          before = exec_->process().tallies();
          const cov::TraceSummary summary =
              adopt_and_fill(outcome, map, scratch);
          each(index, summary, scratch);
        });
  }

 private:
  void mirror(const oop::TargetProcess::Tallies& before,
              const oop::OutOfProcessExecutor::Outcome& outcome,
              ByteSpan packet) const {
    mirror_oop_telemetry(telemetry_, before, exec_->process().tallies(),
                         outcome, packet, exec_timeout_ms_,
                         exec_->config().jail);
  }

  /// Adopts the child's shared-memory trace into `map` (reader-side dirty
  /// list rebuild), reuses the exact in-process analysis unchanged, and
  /// maps the outcome onto the ExecResult observables. Transport-level
  /// failures become synthetic fault reports so crash accounting sees
  /// them; on the healthy path the aux block shipped the exact in-process
  /// observables and the reports below never fire — which is what keeps
  /// out-of-process trajectories bit-identical to in-process ones
  /// (test_exec_oop.cpp).
  cov::TraceSummary adopt_and_fill(
      const oop::OutOfProcessExecutor::Outcome& outcome, cov::CoverageMap& map,
      ExecResult& result) {
    map.adopt_external(exec_->map_words());
    const cov::TraceSummary summary =
        dense_ ? map.finalize_execution_dense() : map.finalize_execution();

    result.events = outcome.aux.events;
    result.faults.assign(outcome.aux.faults.begin(),
                         outcome.aux.faults.end());
    result.response.assign(outcome.aux.response.begin(),
                           outcome.aux.response.end());
    result.response_truncated = outcome.aux.response_truncated;
    result.session_states.clear();  // fork-server exchanges are sessionless
    result.session_messages = 0;
    if (outcome.aux.faults_truncated) {
      // The child's fault stream overflowed the aux block: the list above
      // is incomplete, which crash accounting must see rather than
      // silently under-report.
      result.faults.push_back(san::FaultReport{
          san::FaultKind::Segv, san::site_id("oop-aux-faults-truncated"),
          "fault reports overflowed the shared-memory aux block"});
    }

    switch (outcome.status) {
      case oop::ExecStatus::kOk:
        break;
      case oop::ExecStatus::kCrash:
      case oop::ExecStatus::kOom:
        result.faults.push_back(target_death_fault(outcome));
        break;
      case oop::ExecStatus::kHang:
        result.faults.push_back(san::FaultReport{
            san::FaultKind::Hang, san::site_id("oop-exec-deadline"),
            "execution exceeded the " + std::to_string(exec_timeout_ms_) +
                " ms fork-server deadline"});
        break;
      case oop::ExecStatus::kServerLost:
        result.faults.push_back(san::FaultReport{
            san::FaultKind::Segv, san::site_id("oop-server-lost"),
            "fork server unreachable: " + exec_->last_error()});
        break;
    }
    return summary;
  }

  BackendKind kind_;
  bool dense_;
  int exec_timeout_ms_;
  telem::Sink telemetry_;
  std::unique_ptr<oop::OutOfProcessExecutor> exec_;
};

}  // namespace

void mirror_oop_telemetry(const telem::Sink& sink,
                          const oop::TargetProcess::Tallies& before,
                          const oop::TargetProcess::Tallies& after,
                          const oop::OutOfProcessExecutor::Outcome& outcome,
                          ByteSpan packet, int exec_timeout_ms,
                          const supervise::ResourceJail& jail) {
  if (!sink.enabled()) return;
  // A deadline SIGKILL ("hang") is a target bug, a lost server is
  // infrastructure trouble, and an orderly retirement is neither — the
  // journal says which with each event's reason. Events are rare, so the
  // packet is hashed only for one.
  const auto packet_hash = [packet] { return content_hash(packet); };
  const std::uint64_t respawns = after.restarts - before.restarts;
  const std::uint64_t orderly = after.orderly_exits - before.orderly_exits;
  if (respawns > 0) {
    sink.add(telem::Counter::kOopRestarts, respawns);
    sink.event(telem::EventType::kForkServerRespawn, packet_hash(),
               orderly > 0 ? "reason=server-exited" : "reason=server-lost");
  }
  if (after.retries > before.retries) {
    sink.add(telem::Counter::kOopRetries, after.retries - before.retries);
  }
  if (orderly > 0) sink.add(telem::Counter::kOopServerExits, orderly);
  if (outcome.child_recycled) {
    sink.add(telem::Counter::kOopChildRecycles);
    sink.observe(telem::Histogram::kOopIterationsPerChild, outcome.iteration);
  }
  char detail[48];
  switch (outcome.status) {
    case oop::ExecStatus::kHang:
      sink.add(telem::Counter::kOopHangs);
      std::snprintf(detail, sizeof detail, "reason=hang deadline_ms=%d",
                    exec_timeout_ms);
      sink.event(telem::EventType::kHang, packet_hash(), detail);
      break;
    case oop::ExecStatus::kOom:
      sink.add(telem::Counter::kOopOomKills);
      std::snprintf(detail, sizeof detail, "reason=oom jail_as_mb=%llu",
                    static_cast<unsigned long long>(jail.address_space_mb));
      sink.event(telem::EventType::kOomKill, packet_hash(), detail);
      break;
    case oop::ExecStatus::kServerLost:
      sink.add(telem::Counter::kOopServerLost);
      sink.event(telem::EventType::kServerLost, packet_hash(),
                 "reason=server-lost");
      break;
    case oop::ExecStatus::kOk:
    case oop::ExecStatus::kCrash:
      break;
  }
}

san::FaultReport target_death_fault(
    const oop::OutOfProcessExecutor::Outcome& outcome) {
  if (outcome.status == oop::ExecStatus::kOom) {
    // The jail's distinct exit code keeps allocation-failure deaths out of
    // the memory-safety crash buckets.
    return san::FaultReport{
        san::FaultKind::Segv, san::site_id("oop-child-oom"),
        "resource jail killed the child (allocation failure under "
        "RLIMIT_AS)"};
  }
  return san::FaultReport{
      san::FaultKind::Segv, san::site_id("oop-child-terminated"),
      outcome.term_signal != 0
          ? "target child died on signal " +
                std::to_string(outcome.term_signal)
          : "target child exited abnormally (code " +
                std::to_string(outcome.exit_code) + ")"};
}

std::unique_ptr<ExecBackend> make_exec_backend(const ExecBackendConfig& config,
                                               bool dense_reference,
                                               telem::Sink telemetry) {
  if (config.kind == BackendKind::kTcp) {
    return session::make_tcp_session_backend(config, dense_reference,
                                             telemetry);
  }
  if (config.kind == BackendKind::kInProcess) {
    if (config.session.framing != session::Framing::kNone) {
      return session::make_in_process_session_backend(config, dense_reference);
    }
    return std::make_unique<InProcessBackend>(dense_reference);
  }
  return std::make_unique<OopBackend>(config, dense_reference, telemetry);
}

}  // namespace icsfuzz::fuzz
