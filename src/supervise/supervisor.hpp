// CampaignSupervisor — the one runner of a parallel campaign
// (parallel/parallel_campaign.hpp).
//
// It executes the campaign's iteration budget as a sequence of lockstep
// chunks with a control loop wrapped around the workers. A plain campaign
// is the degenerate case: an empty checkpoint_path and
// checkpoint_interval = 0 give one chunk, no barrier and no image.
//
//     ┌───────────────────────── supervisor thread ─────────────────────┐
//     │  resume? ── load_checkpoint ── restore workers                  │
//     │  repeat until budget done or stopped:                           │
//     │    spawn worker threads      run_range(chunk)                   │
//     │    write the last capture (CheckpointWriter: base or segment)   │
//     │    watchdog wait ── progress() heartbeats ── kill wedged server │
//     │                  └─ live telemetry export every export period   │
//     │    join ── capture a checkpoint (workers quiescent)             │
//     │  final: write the last capture, aggregate + telemetry flush     │
//     └─────────────────────────────────────────────────────────────────┘
//
// Because Worker::run_range() keys the sync schedule on absolute iteration
// indices, chunked execution is bit-identical to one uninterrupted run —
// which is what makes the checkpoint/resume trajectory reproducible after
// a kill -9 (gated by tests/test_checkpoint_resume.cpp).
//
// The watchdog reads each worker's relaxed progress counter; a worker that
// makes no progress for `wedge_timeout_ms` gets its fork server SIGKILLed
// (the worker unblocks through the normal server-lost respawn path). In-
// process backends cannot be unwedged this way; after `max_watchdog_kicks`
// the supervisor stops intervening and simply waits.
//
// request_stop() (from another thread, or from a SIGINT/SIGTERM handler the
// embedding program installs; run() installs none) asks for a graceful
// stop: the current chunk completes, a final checkpoint and telemetry
// export are flushed, registered shm segments are unlinked, and run()
// returns with interrupted=true — rerunning with resume=true continues the
// campaign.
#pragma once

#include <cstdint>
#include <string>

#include "parallel/parallel_campaign.hpp"

namespace icsfuzz::supervise {

struct SupervisorConfig {
  /// The campaign to supervise (worker count, budget, fuzzer config...).
  par::ParallelCampaignConfig campaign;
  /// Checkpoint log path; empty disables checkpoint/resume entirely.
  std::string checkpoint_path;
  /// Iterations per lockstep chunk — a checkpoint lands after every chunk.
  /// 0 means one chunk covering the whole budget (final checkpoint only).
  std::uint64_t checkpoint_interval = 4096;
  /// Restore checkpoint_path when it holds a matching campaign image.
  bool resume = true;
  /// Worker heartbeat: no progress for this long marks a worker wedged.
  int wedge_timeout_ms = 30000;
  /// Watchdog poll period.
  int watchdog_poll_ms = 200;
  /// Remediation budget per worker per chunk; beyond it the supervisor
  /// stops kicking and waits (a kick cycle that does not unwedge the
  /// worker will not be improved by more kicks).
  int max_watchdog_kicks = 4;
};

struct SupervisorResult {
  /// Aggregated campaign result — fully populated only when the budget
  /// completed (interrupted == false); a stopped run reports the partial
  /// per-worker tallies without the final distillation.
  par::ParallelCampaignResult campaign;
  bool interrupted = false;
  bool resumed = false;
  std::uint64_t completed_iterations = 0;
  std::uint64_t checkpoints_saved = 0;
  std::uint64_t watchdog_kicks = 0;
  /// Non-fatal problems (unreadable checkpoint, failed save...).
  std::string notes;
};

class CampaignSupervisor {
 public:
  /// `models` must outlive the supervisor; `make_target` is invoked once
  /// per worker.
  CampaignSupervisor(fuzz::TargetFactory make_target,
                     const model::DataModelSet& models,
                     SupervisorConfig config);

  /// Drives the campaign to completion (or until stopped). Blocking.
  SupervisorResult run();

  /// Requests a graceful stop of every running supervisor in the process.
  /// Async-signal-safe: an embedding program's SIGINT/SIGTERM handler may
  /// call it.
  static void request_stop();
  /// Clears a pending stop request (call before run() when reusing the
  /// process after a stop).
  static void clear_stop();

 private:
  fuzz::TargetFactory make_target_;
  const model::DataModelSet& models_;
  SupervisorConfig config_;
};

}  // namespace icsfuzz::supervise
