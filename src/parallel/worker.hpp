// Worker — one shard of a parallel fuzzing campaign.
//
// Each worker owns a private ProtocolTarget instance and a private Fuzzer
// (its own RNG stream, CoverageMap, PathTracker, puzzle corpus and crash
// db), so the hot fuzzing loop runs entirely without synchronization —
// coverage tracing and the fault sink are thread_local (instrument.hpp,
// fault.hpp). Every `sync_interval` executions the worker visits the
// SeedExchange to publish what it learned and import what its peers did.
//
// Determinism: worker w's RNG seed is derived as
//     seed(w) = base_seed + w * kWorkerSeedStride     (seed(0) == base_seed)
// so a one-worker campaign reproduces the sequential Fuzzer bit-for-bit:
// publishing reads only, nothing is ever imported (the pull skips the
// worker's own seeds), and unchanged corpus merges add nothing and draw no
// randomness.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "fuzzer/fuzzer.hpp"
#include "parallel/seed_exchange.hpp"
#include "protocols/protocol_target.hpp"

namespace icsfuzz::par {

/// Odd stride keeps distinct workers' xoshiro seeds distinct.
inline constexpr std::uint64_t kWorkerSeedStride = 0x9E3779B97F4A7C15ULL;

/// RNG seed for worker `id` of a campaign seeded with `base_seed`.
[[nodiscard]] constexpr std::uint64_t worker_seed(std::uint64_t base_seed,
                                                  std::size_t id) {
  return base_seed + static_cast<std::uint64_t>(id) * kWorkerSeedStride;
}

struct WorkerConfig {
  std::size_t id = 0;
  /// Total workers in the campaign. A solo worker still publishes (the
  /// exchange carries the campaign-wide tallies) but skips the import
  /// phase: with no peers there is nothing to pull, and skipping it keeps
  /// even pathological cases (re-importing a puzzle the worker itself
  /// evicted from a full bucket) from perturbing the sequential replay.
  std::size_t worker_count = 1;
  /// Executions between exchange visits. 0 disables syncing entirely.
  std::uint64_t sync_interval = 1024;
  /// Full fuzzer configuration; rng_seed must already be the worker seed.
  fuzz::FuzzerConfig fuzzer;
};

/// Everything a worker needs to continue a campaign after a process
/// restart: the fuzzer checkpoint plus the exchange cursor, the import-side
/// RNG and the sync bookkeeping. Captured between iterations only (see
/// Fuzzer::capture_checkpoint).
struct WorkerState {
  fuzz::FuzzerCheckpoint fuzzer;
  std::vector<std::size_t> cursor_next;
  Rng::State sync_rng{};
  std::uint64_t published = 0;
  std::uint64_t imported = 0;
  std::uint64_t puzzles_imported = 0;
  std::uint64_t syncs = 0;
  std::uint64_t published_corpus_revision = 0;
  std::uint64_t imported_global_revision = 0;
};

class Worker {
 public:
  /// `models` and `exchange` must outlive the worker; the target is owned.
  Worker(WorkerConfig config, std::unique_ptr<ProtocolTarget> target,
         const model::DataModelSet& models, SeedExchange& exchange);

  /// Runs `iterations` executions with periodic sync, then a final sync.
  /// Call on the worker's own thread (coverage tracing is thread-local).
  void run(std::uint64_t iterations);

  /// Runs iterations [begin, end) of a `total`-iteration campaign, with
  /// the sync schedule keyed on the absolute iteration index — executing a
  /// campaign in consecutive chunks is bit-identical to one run(total)
  /// call. The finishing chunk (end == total) performs the final
  /// publish-only sync and the fuzzer's finish() pass; earlier chunks
  /// leave the worker quiescent between iterations, which is exactly when
  /// capture_state() is legal.
  void run_range(std::uint64_t begin, std::uint64_t end, std::uint64_t total);

  /// Checkpoint/resume (between run_range chunks only).
  [[nodiscard]] WorkerState capture_state() const;
  void restore_state(const WorkerState& state);

  /// Iterations completed across all run/run_range calls — the watchdog's
  /// heartbeat. Readable from any thread while the worker runs.
  [[nodiscard]] std::uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Watchdog remediation: SIGKILLs the worker's target server (fork
  /// server or TCP session server, if any), so a worker wedged inside a
  /// blocking transport wait unblocks through the backend's normal
  /// server-death path. Callable from another thread; no-op for
  /// in-process backends or when no server is up (a raced pid that just
  /// exited is harmless — the backend owns reaping).
  void kill_target_server() const;

  [[nodiscard]] const fuzz::Fuzzer& fuzzer() const { return fuzzer_; }
  [[nodiscard]] std::size_t id() const { return config_.id; }
  [[nodiscard]] std::uint64_t seeds_published() const { return published_; }
  [[nodiscard]] std::uint64_t seeds_imported() const { return imported_; }
  [[nodiscard]] std::uint64_t puzzles_imported() const {
    return puzzles_imported_;
  }
  [[nodiscard]] std::uint64_t syncs() const { return syncs_; }

 private:
  /// One exchange visit: publish retained seeds + puzzles + coverage, then
  /// (when `import_phase`) import peers' seeds and puzzles. The final visit
  /// of a run is publish-only — imported seeds could never execute, so
  /// pulling them would only inflate the import counters.
  void sync(bool import_phase);

  WorkerConfig config_;
  std::unique_ptr<ProtocolTarget> target_;
  SeedExchange& exchange_;
  fuzz::Fuzzer fuzzer_;
  SeedExchange::Cursor cursor_;
  /// RNG for import-side decisions, separate from the fuzzer's stream.
  Rng sync_rng_;

  std::uint64_t published_ = 0;
  std::uint64_t imported_ = 0;
  std::uint64_t puzzles_imported_ = 0;
  std::uint64_t syncs_ = 0;
  /// Corpus revisions seen at the last publish/import — unchanged revisions
  /// let a sync skip the O(corpus) re-merges entirely.
  std::uint64_t published_corpus_revision_ = 0;
  std::uint64_t imported_global_revision_ = 0;
  /// Lifetime iteration heartbeat (relaxed; written by the worker thread,
  /// read by the watchdog).
  std::atomic<std::uint64_t> progress_{0};
};

}  // namespace icsfuzz::par
