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

namespace {

/// kInProcess: the ProtocolTarget runs on this thread under the
/// thread-local trace arming — reset, arm, trace, process, finalize.
class InProcessBackend final : public SyncExecBackend {
 public:
  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kInProcess;
  }

 protected:
  cov::TraceSummary execute(ProtocolTarget& target, ByteSpan packet,
                            cov::CoverageMap& map,
                            ExecResult& result) override {
    // Executions must not nest on a thread: the second begin_execution
    // would silently steal the first one's thread-local trace arming.
    assert(!cov::trace_armed());

    target.reset();
    san::FaultSink::arm();
    map.begin_execution();

    target.process_into(packet, result.response);
    result.response_truncated = false;  // reused-result hygiene
    result.session_states.clear();      // plain exchanges have no session
    result.session_messages = 0;

    // The fused sparse pass replaces the old end_execution -> trace_hash ->
    // trace_edge_count -> accumulate sequence: one sweep of the dirty words
    // instead of four full-map passes.
    const cov::TraceSummary summary = map.finalize_execution();
    result.events = cov::tls_event_count;
    san::FaultSink::disarm_into(result.faults);
    return summary;
  }
};

constexpr TransportFaults kForkServerFaults{
    "oop-exec-deadline", "execution", "fork-server", "oop-server-lost",
    "fork server"};

/// The synthetic fault of an execution whose target died (kCrash / kOom):
/// oop-child-oom when the resource jail fired, oop-child-terminated with
/// the signal or exit code otherwise.
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

/// kForkPerExec / kPersistent: packets cross into the fork-server target
/// through OutOfProcessExecutor, up to oop::kNumSlots in flight; the shm
/// trace is adopted into the owning map (from the child's dirty-word list,
/// or by the full-map scan) so the analysis downstream of complete() is
/// byte-for-byte the in-process one.
class OopBackend final : public ExecBackend {
 public:
  OopBackend(const ExecBackendConfig& config, telem::Sink telemetry)
      : kind_(config.kind),
        telemetry_(telemetry),
        exec_(fork_server_config(config)) {}

  [[nodiscard]] BackendKind kind() const override { return kind_; }

  [[nodiscard]] std::size_t depth() const override { return oop::kNumSlots; }

  [[nodiscard]] const oop::OutOfProcessExecutor* oop() const override {
    return &exec_;
  }

  [[nodiscard]] const oop::TargetProcess* target_process() const override {
    return &exec_.process();
  }

  void submit(ProtocolTarget& /*target*/, ByteSpan packet) override {
    exec_.submit(packet);
  }

  cov::TraceSummary complete(cov::CoverageMap& map,
                             ExecResult& result) override {
    const oop::OutOfProcessExecutor::Outcome& outcome = exec_.complete();
    book(outcome, /*speculative=*/false);
    return adopt_and_fill(outcome, map, result);
  }

  void discard() override { book(exec_.complete(), /*speculative=*/true); }

 private:
  /// Books `outcome` with the lifecycle deltas since the last booking, so a
  /// respawn that happened while a packet was submitted is counted once.
  void book(const oop::OutOfProcessExecutor::Outcome& outcome,
            bool speculative) {
    const oop::TargetProcess::Tallies& now = exec_.process().tallies();
    mirror_oop_telemetry(telemetry_, booked_, now, outcome, outcome.packet,
                         exec_.config().exec_timeout_ms, exec_.config().jail,
                         speculative);
    booked_ = now;
  }

  /// Adopts the child's shared-memory trace into `map` (adopt_oop_trace),
  /// reuses the exact in-process analysis unchanged, and maps the outcome
  /// onto the ExecResult observables (fill_outcome_faults). On the healthy
  /// path the aux block shipped the exact in-process observables and no
  /// synthetic fault fires — which is what keeps out-of-process
  /// trajectories bit-identical to in-process ones (test_exec_oop.cpp).
  cov::TraceSummary adopt_and_fill(
      const oop::OutOfProcessExecutor::Outcome& outcome, cov::CoverageMap& map,
      ExecResult& result) {
    adopt_oop_trace(telemetry_, map, exec_.map_words(), exec_.dirty_list(),
                    outcome.status == oop::ExecStatus::kOk);
    const cov::TraceSummary summary = map.finalize_execution();

    result.response.assign(outcome.aux.response.begin(),
                           outcome.aux.response.end());
    result.response_truncated = outcome.aux.response_truncated;
    result.session_states.clear();  // fork-server exchanges are sessionless
    result.session_messages = 0;
    fill_outcome_faults(outcome, kForkServerFaults,
                        exec_.config().exec_timeout_ms, exec_.last_error(),
                        result);
    return summary;
  }

  /// The fork-server settings of `config`: the persistent budget holds
  /// under kPersistent only, every other kind forks per execution.
  static oop::TargetConfig fork_server_config(
      const ExecBackendConfig& config) {
    oop::TargetConfig target = config;
    if (config.kind != BackendKind::kPersistent) target.persistent_budget = 0;
    return target;
  }

  BackendKind kind_;
  telem::Sink telemetry_;
  oop::OutOfProcessExecutor exec_;
  oop::TargetProcess::Tallies booked_;
};

}  // namespace

void mirror_oop_telemetry(const telem::Sink& sink,
                          const oop::TargetProcess::Tallies& before,
                          const oop::TargetProcess::Tallies& after,
                          const oop::OutOfProcessExecutor::Outcome& outcome,
                          ByteSpan packet, int exec_timeout_ms,
                          const supervise::ResourceJail& jail,
                          bool speculative) {
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
  if (speculative) {
    // Work the fuzzer threw away unseen: whatever became of it is no
    // finding and no infrastructure failure of the campaign.
    sink.add(telem::Counter::kOopSpeculativeDiscards);
    return;
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

void adopt_oop_trace(const telem::Sink& sink, cov::CoverageMap& map,
                     const std::uint64_t* words,
                     const std::uint8_t* dirty_list, bool completed) {
  const std::uint16_t* indices = nullptr;
  std::uint32_t count = 0;
  if (completed && map.kernel() != cov::simd::Kernel::kDense &&
      oop::dirty_list_load(dirty_list, indices, count)) {
    map.adopt_sparse(words, indices, count);
    return;
  }
  map.adopt_external(words);
  if (words != nullptr) sink.add(telem::Counter::kOopAdoptFullScans);
}

void fill_outcome_faults(const oop::OutOfProcessExecutor::Outcome& outcome,
                         const TransportFaults& transport,
                         int exec_timeout_ms, std::string_view last_error,
                         ExecResult& result) {
  result.events = outcome.aux.events;
  result.faults.assign(outcome.aux.faults.begin(), outcome.aux.faults.end());
  if (outcome.aux.faults_truncated) {
    // The target's fault stream overflowed the aux block: the list above
    // is incomplete, which crash accounting must see rather than silently
    // under-report.
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
          san::FaultKind::Hang, san::site_id(transport.deadline_site),
          std::string(transport.execution) + " exceeded the " +
              std::to_string(exec_timeout_ms) + " ms " + transport.deadline +
              " deadline"});
      break;
    case oop::ExecStatus::kServerLost:
      result.faults.push_back(san::FaultReport{
          san::FaultKind::Segv, san::site_id(transport.lost_site),
          std::string(transport.server) + " unreachable: " +
              std::string(last_error)});
      break;
  }
}

std::unique_ptr<ExecBackend> make_exec_backend(const ExecBackendConfig& config,
                                               telem::Sink telemetry) {
  if (config.kind == BackendKind::kTcp) {
    return session::make_tcp_session_backend(config, telemetry);
  }
  if (config.kind == BackendKind::kInProcess) {
    if (config.session.framing != session::Framing::kNone) {
      return session::make_in_process_session_backend(config);
    }
    return std::make_unique<InProcessBackend>();
  }
  return std::make_unique<OopBackend>(config, telemetry);
}

}  // namespace icsfuzz::fuzz
