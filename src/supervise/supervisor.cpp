#include "supervise/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "distill/distill.hpp"
#include "exec_oop/shm_segment.hpp"
#include "supervise/checkpoint.hpp"
#include "telemetry/export.hpp"

namespace icsfuzz::supervise {

namespace {

/// Process-wide stop flag: written by request_stop() (from any thread,
/// or from a signal handler the embedding program installs), polled by
/// every supervisor between chunks. Lock-free, so it is safe from both.
std::atomic<int> g_stop_requested{0};
static_assert(std::atomic<int>::is_always_lock_free);

void append_note(std::string& notes, const std::string& note) {
  if (!notes.empty()) notes += "; ";
  notes += note;
}

/// Constructs the W workers against `exchange`: one private target
/// instance each, the deterministic per-worker RNG seed, and the telemetry
/// sink rebound to worker w's registry shard.
std::vector<std::unique_ptr<par::Worker>> build_workers(
    const fuzz::TargetFactory& make_target, const model::DataModelSet& models,
    const par::ParallelCampaignConfig& config, par::SeedExchange& exchange) {
  const telem::Sink campaign_sink = config.fuzzer.telemetry;
  std::vector<std::unique_ptr<par::Worker>> workers;
  workers.reserve(config.workers);
  for (std::size_t w = 0; w < config.workers; ++w) {
    par::WorkerConfig worker_config;
    worker_config.id = w;
    worker_config.worker_count = config.workers;
    worker_config.sync_interval = config.sync_interval;
    worker_config.fuzzer = config.fuzzer;
    worker_config.fuzzer.rng_seed = par::worker_seed(config.base_seed, w);
    // Rebind the sink to worker w's shard of the same hub: shards are
    // single-writer by contract, and the configured sink (worker 0's by
    // default) must not be shared across threads.
    worker_config.fuzzer.telemetry =
        campaign_sink.enabled()
            ? telem::Sink(campaign_sink.hub(), static_cast<std::uint32_t>(w))
            : telem::Sink();
    workers.push_back(std::make_unique<par::Worker>(
        worker_config, make_target(), models, exchange));
  }
  return workers;
}

/// Folds quiescent workers into the campaign result: per-worker reports,
/// pooled crash db, summed throughput series, global coverage from the
/// exchange and, when `distill`, the final distillation of the pooled
/// retained seeds.
par::ParallelCampaignResult aggregate(
    const std::vector<std::unique_ptr<par::Worker>>& workers,
    par::SeedExchange& exchange, const par::ParallelCampaignConfig& config,
    const fuzz::TargetFactory& make_target, bool distill,
    double wall_seconds) {
  par::ParallelCampaignResult result;
  result.wall_seconds = wall_seconds;
  std::vector<std::vector<fuzz::Checkpoint>> all_series;
  for (const std::unique_ptr<par::Worker>& worker : workers) {
    const fuzz::Fuzzer& fuzzer = worker->fuzzer();
    par::WorkerReport report;
    report.id = worker->id();
    report.executions = fuzzer.executor().executions();
    report.paths = fuzzer.path_count();
    report.edges = fuzzer.executor().edge_count();
    report.unique_crashes = fuzzer.crashes().unique_count();
    report.corpus_size = fuzzer.corpus().size();
    report.retained_seeds = fuzzer.retained_seeds().size();
    report.seeds_published = worker->seeds_published();
    report.seeds_imported = worker->seeds_imported();
    report.puzzles_imported = worker->puzzles_imported();
    report.series = fuzzer.stats().checkpoints();
    all_series.push_back(report.series);

    result.total_executions += report.executions;
    for (const fuzz::CrashRecord* record : fuzzer.crashes().records()) {
      result.pooled_crashes.record(
          san::FaultReport{record->kind, record->site, record->detail},
          record->reproducer, record->first_execution, record->trace_hash);
    }
    result.workers.push_back(std::move(report));
  }
  result.throughput_series = fuzz::sum_series(all_series);

  if (config.sync_interval == 0) {
    // Workers never visited the exchange; fold their final maps here so the
    // global numbers are meaningful in the no-sync configuration too.
    for (const std::unique_ptr<par::Worker>& worker : workers) {
      exchange.merge_coverage(worker->fuzzer().executor().coverage(),
                              worker->fuzzer().executor().paths());
    }
  }
  result.global_paths = exchange.global_paths();
  result.global_edges = exchange.global_edges();
  result.seeds_published = exchange.published_count();

  if (distill) {
    // Pool every worker's retained seeds (content-deduplicated, worker
    // order — deterministic because workers are visited in id order) and
    // keep the coverage-preserving minimum. Replays shard across the same
    // worker count the campaign ran with.
    std::vector<Bytes> pooled;
    std::unordered_set<std::uint64_t> seen;
    for (const std::unique_ptr<par::Worker>& worker : workers) {
      for (const fuzz::RetainedSeed& seed :
           worker->fuzzer().retained_seeds()) {
        if (seen.insert(content_hash(seed.bytes)).second) {
          pooled.push_back(seed.bytes);
        }
      }
    }
    distill::CminConfig distill_config;
    distill_config.workers = config.workers;
    distill_config.executor = config.fuzzer.executor;
    distill::CminResult distilled =
        distill::cmin(make_target, pooled, distill_config);
    result.distilled_corpus = std::move(distilled.seeds);
    result.distill_stats = distilled.stats;
  }
  return result;
}

}  // namespace

void CampaignSupervisor::request_stop() { g_stop_requested = 1; }
void CampaignSupervisor::clear_stop() { g_stop_requested = 0; }

CampaignSupervisor::CampaignSupervisor(fuzz::TargetFactory make_target,
                                       const model::DataModelSet& models,
                                       SupervisorConfig config)
    : make_target_(std::move(make_target)),
      models_(models),
      config_(std::move(config)) {
  if (config_.campaign.workers == 0) config_.campaign.workers = 1;
}

SupervisorResult CampaignSupervisor::run() {
  SupervisorResult result;
  const par::ParallelCampaignConfig& cc = config_.campaign;
  par::SeedExchange exchange(cc.base_seed ^ 0xC0FFEEULL);
  std::vector<std::unique_ptr<par::Worker>> workers =
      build_workers(make_target_, models_, cc, exchange);

  // The supervisor's own sink: shard W — distinct from every worker's
  // shard for any campaign under the registry's 64-slot modulo, so the
  // watchdog can count kicks while workers run without violating the
  // single-writer shard contract. Journal appends are mutex-protected and
  // safe from here regardless.
  const telem::Sink campaign_sink = cc.fuzzer.telemetry;
  const telem::Sink sink =
      campaign_sink.enabled()
          ? telem::Sink(campaign_sink.hub(),
                        static_cast<std::uint32_t>(cc.workers))
          : telem::Sink();

  const std::uint64_t total = cc.iterations_per_worker;
  std::uint64_t completed = 0;

  // -- Resume. -------------------------------------------------------------
  if (config_.resume && !config_.checkpoint_path.empty()) {
    if (std::optional<CampaignCheckpoint> cp =
            load_checkpoint(config_.checkpoint_path)) {
      const bool identity_matches =
          cp->base_seed == cc.base_seed &&
          cp->iterations_per_worker == cc.iterations_per_worker &&
          cp->sync_interval == cc.sync_interval &&
          cp->workers.size() == workers.size() &&
          cp->completed_iterations <= total;
      if (identity_matches) {
        for (std::size_t w = 0; w < workers.size(); ++w) {
          workers[w]->restore_state(cp->workers[w]);
        }
        completed = cp->completed_iterations;
        result.resumed = true;
        if (sink.enabled()) {
          char detail[64];
          std::snprintf(detail, sizeof detail, "resumed at=%llu of=%llu",
                        static_cast<unsigned long long>(completed),
                        static_cast<unsigned long long>(total));
          sink.event(telem::EventType::kCheckpoint, 0, detail);
        }
      } else {
        append_note(result.notes,
                    "checkpoint ignored: campaign identity mismatch");
      }
    }
  }

  if (sink.enabled()) {
    char detail[64];
    std::snprintf(detail, sizeof detail, "workers=%zu iterations=%llu",
                  cc.workers, static_cast<unsigned long long>(total));
    sink.event(telem::EventType::kCampaignStart, 0, detail);
  }

  // -- Checkpoint log. ------------------------------------------------------
  // A save captures the workers between chunks, while they are quiescent,
  // and is written while the next chunk runs, so the workers stop only for
  // the capture. It is a segment holding every worker's dedup journal when
  // the writer accepts one and no journal rotated or overflowed, a fresh
  // base otherwise. The journals are sized for one chunk's inserts; a
  // single-chunk campaign saves once, as a base, and never arms them.
  const std::uint64_t chunk_size =
      config_.checkpoint_interval != 0 ? config_.checkpoint_interval : total;
  CheckpointWriter writer(config_.checkpoint_path);
  const bool journaled =
      !config_.checkpoint_path.empty() && chunk_size < total - completed;
  const auto arm_journals = [&] {
    if (!journaled) return;
    for (const std::unique_ptr<par::Worker>& worker : workers) {
      worker->arm_dedup_journal(chunk_size);
    }
  };
  arm_journals();

  const auto capture = [&](std::uint64_t done) {
    bool delta = writer.accepts_segment();
    for (const std::unique_ptr<par::Worker>& worker : workers) {
      delta = delta && worker->fuzzer().dedup().journal_valid();
    }
    CampaignCheckpoint cp;
    cp.completed_iterations = done;
    cp.base_seed = cc.base_seed;
    cp.iterations_per_worker = cc.iterations_per_worker;
    cp.sync_interval = cc.sync_interval;
    cp.workers.reserve(workers.size());
    for (const std::unique_ptr<par::Worker>& worker : workers) {
      cp.workers.push_back(worker->capture_state(delta));
    }
    arm_journals();
    return cp;
  };
  const auto write = [&](const CampaignCheckpoint& cp) {
    if (std::optional<std::string> error = writer.save(cp)) {
      append_note(result.notes, "checkpoint save failed: " + *error);
      return;
    }
    ++result.checkpoints_saved;
    if (sink.enabled()) {
      char detail[64];
      std::snprintf(detail, sizeof detail, "saved at=%llu of=%llu",
                    static_cast<unsigned long long>(cp.completed_iterations),
                    static_cast<unsigned long long>(total));
      sink.add(telem::Counter::kCheckpointsSaved);
      sink.event(telem::EventType::kCheckpoint, 0, detail);
    }
  };
  std::optional<CampaignCheckpoint> pending;  // captured, not yet written

  // Live export: the watchdog's wait also wakes for each export deadline
  // and atomically rewrites metrics.json / metrics.prom / journal.jsonl
  // under telemetry_dir, so the campaign can be tailed while it runs. Its
  // snapshot reads race only against relaxed atomic counters.
  const bool live_export = sink.enabled() && !cc.telemetry_dir.empty();
  const std::chrono::milliseconds export_period(
      cc.telemetry_export_ms > 0 ? cc.telemetry_export_ms : 1000);
  telem::RateWindows rates;

  // -- Chunk loop. ---------------------------------------------------------
  const std::chrono::milliseconds poll(
      config_.watchdog_poll_ms > 0 ? config_.watchdog_poll_ms : 200);
  const auto start = std::chrono::steady_clock::now();
  auto next_export = live_export ? start + export_period
                                 : std::chrono::steady_clock::time_point::max();
  while (completed < total && g_stop_requested == 0) {
    const std::uint64_t chunk_end = std::min(total, completed + chunk_size);

    // All workers on spawned threads; this thread runs the watchdog. The
    // last worker to finish wakes it, so a chunk ends when its work does,
    // not at the watchdog's next poll.
    const std::size_t n = workers.size();
    std::unique_ptr<std::atomic<bool>[]> done(new std::atomic<bool>[n]);
    for (std::size_t w = 0; w < n; ++w) done[w].store(false);
    std::mutex running_mutex;
    std::condition_variable all_done;
    std::size_t running = n;
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      threads.emplace_back([&, w] {
        workers[w]->run_range(completed, chunk_end, total);
        done[w].store(true, std::memory_order_release);
        const std::lock_guard<std::mutex> lock(running_mutex);
        if (--running == 0) all_done.notify_one();
      });
    }
    if (pending) {
      write(*pending);
      pending.reset();
    }

    std::vector<std::uint64_t> last_progress(n, 0);
    std::vector<int> stalled_ms(n, 0);
    std::vector<int> kicks(n, 0);
    for (std::size_t w = 0; w < n; ++w) {
      last_progress[w] = workers[w]->progress();
    }
    auto last_poll = std::chrono::steady_clock::now();
    for (;;) {
      const auto wake = std::min(last_poll + poll, next_export);
      {
        std::unique_lock<std::mutex> lock(running_mutex);
        if (all_done.wait_until(lock, wake, [&] { return running == 0; })) {
          break;
        }
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= next_export) {
        telem::export_live(*sink.hub(), rates, cc.telemetry_dir);
        next_export = now + export_period;
      }
      if (now < last_poll + poll) continue;  // woken to export only
      // A stall is charged the time that actually passed, so a late or
      // early poll can neither hide a wedge nor fake one.
      const int elapsed_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                                last_poll)
              .count());
      last_poll = now;
      for (std::size_t w = 0; w < n; ++w) {
        if (done[w].load(std::memory_order_acquire)) continue;
        const std::uint64_t progress = workers[w]->progress();
        if (progress != last_progress[w]) {
          last_progress[w] = progress;
          stalled_ms[w] = 0;
          continue;
        }
        stalled_ms[w] += elapsed_ms;
        if (stalled_ms[w] < config_.wedge_timeout_ms) continue;
        stalled_ms[w] = 0;
        if (kicks[w] >= config_.max_watchdog_kicks) continue;
        ++kicks[w];
        ++result.watchdog_kicks;
        workers[w]->kill_target_server();
        if (sink.enabled()) {
          char detail[64];
          std::snprintf(detail, sizeof detail, "worker=%zu kick=%d", w,
                        kicks[w]);
          sink.add(telem::Counter::kWatchdogKicks);
          sink.event(telem::EventType::kWatchdogKick, 0, detail);
        }
      }
    }
    for (std::thread& thread : threads) thread.join();

    completed = chunk_end;
    if (!config_.checkpoint_path.empty()) pending = capture(completed);
  }
  // The last capture — after the final chunk it marks the campaign
  // complete, so a rerun with resume=true is a no-op instead of a replay.
  if (pending) write(*pending);
  const auto stop = std::chrono::steady_clock::now();
  const double wall_seconds =
      std::chrono::duration<double>(stop - start).count();

  result.interrupted = completed < total;
  result.completed_iterations = completed;
  // A stop requested mid-budget reports partial tallies without the final
  // distillation: the campaign is not over, and the checkpoint above
  // already landed after the last finished chunk.
  result.campaign =
      aggregate(workers, exchange, cc, make_target_,
                cc.distill_final && !result.interrupted, wall_seconds);

  if (sink.enabled()) {
    sink.event(telem::EventType::kCampaignStop, 0,
               result.interrupted ? "stop-requested" : "workers-joined");
    if (live_export) telem::export_live(*sink.hub(), rates, cc.telemetry_dir);
  }
  if (result.interrupted) {
    // Belt-and-braces shm hygiene on the shutdown path: unlinking a name
    // whose mapping is still live is safe (the mapping survives), and the
    // owners' destructors tolerate the later ENOENT.
    oop::unlink_all_registered();
  }
  return result;
}

}  // namespace icsfuzz::supervise
