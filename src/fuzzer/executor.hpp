// Executor — runs one generated packet against the instrumented target and
// reports the observables the paper's feedback loop consumes: edge
// coverage novelty ("valuable seed" detection, §IV-B), the execution path
// hash (the path-coverage metric of §V), and soft-sanitizer faults
// (crash/hang detection).
//
// *How* the packet executes is delegated to an ExecBackend
// (fuzzer/exec_backend.hpp): in-process, fork-per-exec, or persistent-mode
// out-of-process — one seam, selected by ExecutorConfig::backend. The
// Executor owns everything campaign-lifetime regardless of backend: the
// accumulated coverage map, the path set, the deterministic hang budget.
//
// Executions go through one in-flight window: submit() puts packets in
// flight (up to window_depth(): oop::kNumSlots on the fork-server kinds, 1
// elsewhere), complete_into() turns the oldest into the campaign's next
// execution, and discard() drops it without a trace in campaign state.
// run()/run_into() are one submit and its completion; run_batch() keeps
// the window full over a packet list. The adaptive loop (fuzz::Fuzzer)
// drives the same window with speculatively generated packets.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "coverage/path_tracker.hpp"
#include "fuzzer/exec_backend.hpp"
#include "protocols/protocol_target.hpp"
#include "sanitizer/fault.hpp"
#include "telemetry/telemetry.hpp"

namespace icsfuzz::fuzz {

struct ExecutorConfig {
  /// Executions whose instrumentation-event count exceeds this budget are
  /// flagged as hangs (the deterministic analogue of Peach's timeout).
  std::uint64_t hang_event_budget = 200000;
  /// Which coverage/simd.hpp kernel this executor's map dispatches to —
  /// the one coverage-analysis knob. kAuto picks the best the build + CPU
  /// support; kScalar force-selects the portable reference loop (the
  /// equivalence suite runs campaigns under both arms so CI exercises the
  /// dispatch even on a single ISA); kDense routes all trace analysis
  /// through the retained dense full-map passes (coverage/dense_ref.hpp) on
  /// every backend. Results are bit-identical — asserted by the
  /// trajectory-preservation suite — but kDense pays the pre-overhaul ~6
  /// whole-map sweeps per execution again.
  cov::simd::Kernel coverage_kernel = cov::simd::Kernel::kAuto;
  /// Execution backend selection: kInProcess (default) runs the
  /// ProtocolTarget passed to run() on this thread; the out-of-process
  /// kinds run `backend.target_cmd` under the fork server and the target
  /// argument is only a placeholder. Coverage then arrives through the
  /// shared-memory segment and is adopted into the same sparse analysis
  /// (CoverageMap::adopt_external), so results are bit-identical to
  /// in-process execution of the same stacks.
  ExecBackendConfig backend;
  /// Telemetry sink for executor-level observables: out-of-process
  /// restart/retry/hang/server-lost/recycle counters and the journal
  /// events that record each kill's reason (hang deadline vs lost server).
  /// Disabled by default — the Fuzzer binds its own sink in when it builds
  /// its executor, while replay/distill executors stay quiet so
  /// distillation never pollutes campaign metrics.
  telem::Sink telemetry;
};

class Executor {
 public:
  explicit Executor(ExecutorConfig config = {});
  ~Executor();
  Executor(Executor&&) noexcept;
  Executor& operator=(Executor&&) noexcept;

  /// Resets the target, arms coverage + sanitizer, runs one packet and
  /// classifies the outcome, with nothing else in flight. Updates the
  /// campaign's accumulated coverage and path set. The returned reference
  /// points at per-executor scratch refilled every run (vector capacities
  /// reused — the steady state allocates nothing), valid until the next
  /// run/run_into/run_batch call.
  const ExecResult& run(ProtocolTarget& target, ByteSpan packet);

  /// Caller-owned-buffer variant of run(): overwrites `result` in place,
  /// reusing the capacity of its faults/response vectors, so a caller that
  /// passes the same ExecResult every iteration performs zero steady-state
  /// heap allocations (given an allocation-free target — see
  /// ProtocolTarget::process_into).
  void run_into(ProtocolTarget& target, ByteSpan packet, ExecResult& result);

  /// Runs a batch of packets with the window kept full, delivering each
  /// classified result in packet order (the result reference is scratch,
  /// valid only inside the callback). Campaign state (paths, accumulated
  /// coverage, execution count) advances exactly as if run() had been
  /// called per packet — batch vs sequential trajectories are
  /// bit-identical (asserted by test_exec_oop.cpp).
  void run_batch(ProtocolTarget& target, const std::vector<Bytes>& packets,
                 const std::function<void(std::size_t, const ExecResult&)>&
                     on_result);

  /// How many packets the backend keeps in flight at once.
  [[nodiscard]] std::size_t window_depth() const { return backend_->depth(); }

  /// Puts `packet` in flight behind the packets already there (at most
  /// window_depth()). `target` and the packet bytes must stay valid until
  /// the packet is completed or discarded.
  void submit(ProtocolTarget& target, ByteSpan packet) {
    backend_->submit(target, packet);
  }

  /// Completes the oldest in-flight packet as the campaign's next
  /// execution into `result` (see run_into).
  void complete_into(ExecResult& result);

  /// Retires the oldest in-flight packet unseen: the execution count,
  /// coverage and path set stay as they were.
  void discard() { backend_->discard(); }

  [[nodiscard]] const cov::CoverageMap& coverage() const { return map_; }
  [[nodiscard]] const cov::PathTracker& paths() const { return paths_; }
  [[nodiscard]] std::size_t path_count() const { return paths_.path_count(); }
  [[nodiscard]] std::size_t edge_count() const { return map_.edges_covered(); }
  [[nodiscard]] std::uint64_t executions() const { return executions_; }

  /// Distinct hashed session states reached this campaign (0 unless a
  /// session backend is running — plain executions carry no states).
  [[nodiscard]] std::size_t session_state_count() const {
    return session_states_.size();
  }
  /// Sorted snapshot of the reached session-state set (stable across runs
  /// with the same trajectory; feeds checkpoint capture).
  [[nodiscard]] std::vector<std::uint64_t> session_states_snapshot() const;
  /// True if the hashed session state `state` was reached this campaign.
  [[nodiscard]] bool session_state_reached(std::uint32_t state) const {
    return session_states_.contains(state);
  }

  /// Forgets all campaign-lifetime state (fresh run).
  void reset_campaign();

  /// Checkpoint/resume: reinstates campaign-lifetime state captured from
  /// another executor — the execution count, the accumulated coverage map
  /// (kMapSize bytes from CoverageMap::snapshot_accumulated) and the path
  /// set. The restored executor continues the campaign exactly where the
  /// captured one stopped: novelty decisions (new_coverage / new_path)
  /// depend only on this state.
  void restore_campaign(std::uint64_t executions,
                        const std::uint8_t* accumulated,
                        const std::vector<std::uint64_t>& path_hashes,
                        const std::vector<std::uint64_t>& session_states = {});

  /// True when this executor runs packets out of process.
  [[nodiscard]] bool out_of_process() const {
    return config_.backend.kind != BackendKind::kInProcess;
  }

  /// The execution backend (never null after construction).
  [[nodiscard]] ExecBackend& backend() { return *backend_; }
  [[nodiscard]] const ExecBackend& backend() const { return *backend_; }

  /// The fork-server transport (out-of-process kinds only; null
  /// in-process). Fault-injection tests and the OOP bench read restart /
  /// recycle counts and transport errors through this.
  [[nodiscard]] const oop::OutOfProcessExecutor* oop_backend() const {
    return backend_->oop();
  }

 private:
  /// Shared tail of every backend (hang budget + summary fields + path
  /// recording) — one implementation, so the backends' trajectories cannot
  /// drift apart.
  void finish_result(const cov::TraceSummary& summary, ExecResult& result);

  ExecutorConfig config_;
  cov::CoverageMap map_;
  cov::PathTracker paths_;
  std::uint64_t executions_ = 0;
  /// Campaign-lifetime set of hashed session states (session backends
  /// only; finish_result folds each execution's chain in).
  std::unordered_set<std::uint32_t> session_states_;
  std::unique_ptr<ExecBackend> backend_;
  /// Scratch for the reference-returning run() (capacity reused).
  ExecResult scratch_;
};

}  // namespace icsfuzz::fuzz
