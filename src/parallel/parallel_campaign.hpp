// The configuration and result of one fuzzing campaign sharded across W
// worker threads with periodic corpus/coverage synchronization through a
// SeedExchange (the campaign-parallel architecture AFL-derived fuzzers use
// to occupy every core; the sequential engine of fuzzer.hpp is the W=1
// special case and is reproduced bit-for-bit). supervise::CampaignSupervisor
// (supervise/supervisor.hpp) is the one runner of such a campaign.
//
// Topology:
//
//     TargetFactory ──► target #0 ─ Fuzzer #0 ─┐        (thread 0)
//                       target #1 ─ Fuzzer #1 ─┤─ SeedExchange
//                       ...                    │   ├ sharded seed store
//                       target #W-1 ─ ... ─────┘   ├ global CoverageMap
//                                                  └ global PuzzleCorpus
//
// Each worker runs on its own thread for the whole run and never waits for
// a peer at the exchange; under checkpointing it also hands the supervisor
// a capture of its state at each chunk boundary and fuzzes on
// (supervise/supervisor.hpp).
//
// Each worker's RNG seed derives deterministically from `base_seed`
// (worker.hpp), so a parallel campaign is reproducible up to OS thread
// interleaving of the sync points — and exactly reproducible at W=1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "distill/distill.hpp"
#include "fuzzer/campaign.hpp"

namespace icsfuzz::par {

struct ParallelCampaignConfig {
  /// Worker threads (shards). 1 reproduces the sequential engine.
  std::size_t workers = 1;
  /// Executions per worker (total campaign work = workers * iterations).
  std::uint64_t iterations_per_worker = 20000;
  /// Base RNG seed; worker w fuzzes with worker_seed(base_seed, w).
  std::uint64_t base_seed = 1;
  /// Executions between exchange visits (0 = never sync).
  std::uint64_t sync_interval = 1024;
  /// Distill the campaign's pooled retained seeds after the workers
  /// finish: replays are sharded across `workers` threads and the greedy
  /// set-cover minimum lands in ParallelCampaignResult::distilled_corpus.
  bool distill_final = false;
  /// Per-worker fuzzer configuration (rng_seed is overridden per worker —
  /// and so is fuzzer.telemetry: worker w gets a sink bound to shard w of
  /// the hub `fuzzer.telemetry` points at, so the hot loops never share a
  /// cache line; a disabled sink here disables telemetry for the whole
  /// campaign). Set fuzzer.distill_interval to auto-distill each worker's
  /// retained pool mid-campaign as well.
  fuzz::FuzzerConfig fuzzer;
  /// Live telemetry export: when non-empty, the supervisor rewrites
  /// metrics.json / metrics.prom / journal.jsonl under this directory
  /// every telemetry_export_ms while the workers run (atomic tmp+rename
  /// writes — `icsfuzz-stats <dir> --follow` tails it), plus one final
  /// export after the last worker stops. Ignored when telemetry is
  /// disabled.
  std::string telemetry_dir;
  int telemetry_export_ms = 1000;
};

/// Final tallies of one worker shard.
struct WorkerReport {
  std::size_t id = 0;
  std::uint64_t executions = 0;
  std::size_t paths = 0;
  std::size_t edges = 0;
  std::size_t unique_crashes = 0;
  std::size_t corpus_size = 0;
  std::size_t retained_seeds = 0;
  std::uint64_t seeds_published = 0;
  std::uint64_t seeds_imported = 0;
  std::uint64_t puzzles_imported = 0;
  std::vector<fuzz::Checkpoint> series;
};

struct ParallelCampaignResult {
  std::vector<WorkerReport> workers;
  /// Deduplicated campaign-wide coverage (merged across workers).
  std::size_t global_paths = 0;
  std::size_t global_edges = 0;
  std::uint64_t total_executions = 0;
  std::size_t seeds_published = 0;
  /// Vulnerabilities pooled across workers, deduplicated by (kind, site).
  fuzz::CrashDb pooled_crashes;
  /// Campaign-wide throughput series (sum_series over the workers).
  std::vector<fuzz::Checkpoint> throughput_series;
  /// The coverage-preserving minimum of the workers' pooled retained seeds
  /// (distill_final only; empty otherwise).
  std::vector<Bytes> distilled_corpus;
  /// Distillation tallies (zeroed unless distill_final).
  distill::CminStats distill_stats;
  double wall_seconds = 0.0;
  [[nodiscard]] double execs_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total_executions) / wall_seconds
               : 0.0;
  }
};

}  // namespace icsfuzz::par
