#include "parallel/worker.hpp"

#include <cstdio>

#include "exec_oop/target_process.hpp"

namespace icsfuzz::par {

Worker::Worker(WorkerConfig config, std::unique_ptr<ProtocolTarget> target,
               const model::DataModelSet& models, SeedExchange& exchange)
    : config_(config),
      target_(std::move(target)),
      exchange_(exchange),
      fuzzer_(*target_, models, config.fuzzer),
      sync_rng_(config.fuzzer.rng_seed ^ 0x5EEDE8C4A06EULL) {}

void Worker::run_range(std::uint64_t begin, std::uint64_t end,
                       std::uint64_t total) {
  const telem::Sink& telemetry = config_.fuzzer.telemetry;
  if (telemetry.enabled()) {
    // Each worker owns its registry shard, so the per-shard 0/1 flag sums
    // to a live campaign-wide workers_running gauge on snapshot.
    telemetry.set(telem::Gauge::kWorkersRunning, 1);
    if (begin == 0) {
      char detail[48];
      std::snprintf(detail, sizeof detail, "iterations=%llu",
                    static_cast<unsigned long long>(total));
      telemetry.event(telem::EventType::kWorkerStart, 0, detail);
    }
  }
  const std::uint64_t interval = config_.sync_interval;
  // The sync schedule keys on the ABSOLUTE iteration index `i`, so a
  // campaign split into chunks visits the exchange at exactly the same
  // points as one uninterrupted run — the bit-for-bit resume oracle
  // depends on it.
  for (std::uint64_t i = begin; i < end; ++i) {
    fuzzer_.step_fast();
    progress_.fetch_add(1, std::memory_order_relaxed);
    if (interval != 0 && (i + 1) % interval == 0) {
      // The sync closing the final iteration is publish-only too: anything
      // imported here could never execute.
      sync(/*import_phase=*/i + 1 < total);
    }
  }
  if (end < total) return;  // mid-campaign chunk: stay quiescent
  // Final publish-only sync, unless the last loop iteration just did it.
  if (interval != 0 && total % interval != 0) {
    sync(/*import_phase=*/false);
  }
  fuzzer_.finish();
  if (telemetry.enabled()) {
    telemetry.set(telem::Gauge::kWorkersRunning, 0);
    char detail[48];
    std::snprintf(detail, sizeof detail, "executions=%llu paths=%zu",
                  static_cast<unsigned long long>(
                      fuzzer_.executor().executions()),
                  fuzzer_.path_count());
    telemetry.event(telem::EventType::kWorkerStop, 0, detail);
  }
}

WorkerState Worker::capture_state(bool delta) const {
  WorkerState state;
  state.fuzzer = fuzzer_.capture_checkpoint(delta);
  state.cursor_next = cursor_.next;
  state.sync_rng = sync_rng_.state();
  state.published = published_;
  state.imported = imported_;
  state.puzzles_imported = puzzles_imported_;
  state.syncs = syncs_;
  state.published_corpus_revision = published_corpus_revision_;
  state.imported_global_revision = imported_global_revision_;
  return state;
}

void Worker::restore_state(const WorkerState& state) {
  fuzzer_.restore_checkpoint(state.fuzzer);
  cursor_.next = state.cursor_next;
  sync_rng_.set_state(state.sync_rng);
  published_ = state.published;
  imported_ = state.imported;
  puzzles_imported_ = state.puzzles_imported;
  syncs_ = state.syncs;
  published_corpus_revision_ = state.published_corpus_revision;
  imported_global_revision_ = state.imported_global_revision;
  // The heartbeat resumes from the checkpointed position: the watchdog
  // only ever diffs progress, and a resumed worker's absolute count then
  // matches what an uninterrupted one would show.
  progress_.store(state.fuzzer.executions, std::memory_order_relaxed);
}

void Worker::kill_target_server() const {
  // Group kill of whichever out-of-process server this worker drives (fork
  // server or TCP session server), so a wedged in-flight exec child dies
  // with it. The backend notices through its normal server-lost path and
  // reaps and respawns; nothing is reaped here.
  if (const oop::TargetProcess* process =
          fuzzer_.executor().backend().target_process()) {
    process->kill();
  }
}

void Worker::sync(bool import_phase) {
  ++syncs_;

  // Publish: fresh valuable seeds, the cracked-puzzle corpus, and the
  // accumulated coverage of this shard. The revision check skips the full
  // re-merge while the corpus is quiet between discoveries; once hot
  // buckets saturate their cap, replacement churn (local and global evict
  // different random victims) can keep revisions moving and force
  // re-merges — bounded at O(corpus) per sync, the pre-optimization cost.
  for (fuzz::RetainedSeed& seed : fuzzer_.drain_new_retained()) {
    if (exchange_.publish(config_.id, std::move(seed.bytes),
                          std::move(seed.model_name), seed.execution)) {
      ++published_;
    }
  }
  if (fuzzer_.corpus().revision() != published_corpus_revision_) {
    published_corpus_revision_ = fuzzer_.corpus().revision();
    exchange_.publish_puzzles(fuzzer_.corpus());
  }
  exchange_.merge_coverage(fuzzer_.executor().coverage(),
                           fuzzer_.executor().paths());

  // Import: peers' seeds are queued for execution (so their discoveries
  // enter this worker's map and corpus through the normal feedback loop),
  // and the global puzzle pool is folded into the local corpus directly.
  if (!import_phase || config_.worker_count <= 1) return;
  std::vector<ExchangeSeed> fresh;
  exchange_.pull(config_.id, cursor_, fresh);
  if (!fresh.empty() && config_.fuzzer.telemetry.enabled()) {
    char detail[48];
    std::snprintf(detail, sizeof detail, "seeds=%zu sync=%llu", fresh.size(),
                  static_cast<unsigned long long>(syncs_));
    config_.fuzzer.telemetry.event(telem::EventType::kSeedImport,
                                   content_hash(fresh.front().bytes), detail);
  }
  for (ExchangeSeed& seed : fresh) {
    fuzzer_.import_external_seed(std::move(seed.bytes));
    ++imported_;
  }
  const std::uint64_t global_revision = exchange_.puzzle_revision();
  if (global_revision != imported_global_revision_) {
    imported_global_revision_ = global_revision;
    puzzles_imported_ +=
        exchange_.import_puzzles(fuzzer_.mutable_corpus(), sync_rng_);
  }
}

}  // namespace icsfuzz::par
