#include "supervise/supervisor.hpp"

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec_oop/shm_segment.hpp"
#include "supervise/checkpoint.hpp"
#include "telemetry/export.hpp"

namespace icsfuzz::supervise {

namespace {

/// Process-wide stop flag: written by signal handlers and request_stop(),
/// polled by every supervisor between chunks.
volatile std::sig_atomic_t g_stop_requested = 0;

void stop_signal_handler(int /*signo*/) { g_stop_requested = 1; }

/// Scoped SIGINT/SIGTERM installation restoring the previous handlers.
class ScopedStopSignals {
 public:
  explicit ScopedStopSignals(bool install) : installed_(install) {
    if (!installed_) return;
    struct sigaction action {};
    action.sa_handler = stop_signal_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: interrupt blocking reads promptly
    ::sigaction(SIGINT, &action, &previous_int_);
    ::sigaction(SIGTERM, &action, &previous_term_);
  }
  ~ScopedStopSignals() {
    if (!installed_) return;
    ::sigaction(SIGINT, &previous_int_, nullptr);
    ::sigaction(SIGTERM, &previous_term_, nullptr);
  }

 private:
  bool installed_;
  struct sigaction previous_int_ {};
  struct sigaction previous_term_ {};
};

void append_note(std::string& notes, const std::string& note) {
  if (!notes.empty()) notes += "; ";
  notes += note;
}

}  // namespace

void CampaignSupervisor::request_stop() { g_stop_requested = 1; }
void CampaignSupervisor::clear_stop() { g_stop_requested = 0; }

CampaignSupervisor::CampaignSupervisor(fuzz::TargetFactory make_target,
                                       const model::DataModelSet& models,
                                       SupervisorConfig config)
    : make_target_(std::move(make_target)),
      models_(models),
      config_(std::move(config)) {}

SupervisorResult CampaignSupervisor::run() {
  SupervisorResult result;
  par::ParallelCampaign campaign(make_target_, models_, config_.campaign);
  const par::ParallelCampaignConfig& cc = campaign.config();  // normalized
  par::SeedExchange exchange(campaign.exchange_config());
  std::vector<std::unique_ptr<par::Worker>> workers =
      campaign.build_workers(exchange);

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

  ScopedStopSignals signals(config_.install_signal_handlers);

  if (sink.enabled()) {
    char detail[64];
    std::snprintf(detail, sizeof detail, "workers=%zu iterations=%llu",
                  cc.workers, static_cast<unsigned long long>(total));
    sink.event(telem::EventType::kCampaignStart, 0, detail);
  }

  auto save = [&](std::uint64_t done) {
    if (config_.checkpoint_path.empty()) return;
    CampaignCheckpoint cp;
    cp.completed_iterations = done;
    cp.base_seed = cc.base_seed;
    cp.iterations_per_worker = cc.iterations_per_worker;
    cp.sync_interval = cc.sync_interval;
    cp.workers.reserve(workers.size());
    for (const std::unique_ptr<par::Worker>& worker : workers) {
      cp.workers.push_back(worker->capture_state());
    }
    if (std::optional<std::string> error =
            save_checkpoint(cp, config_.checkpoint_path)) {
      append_note(result.notes, "checkpoint save failed: " + *error);
      return;
    }
    ++result.checkpoints_saved;
    if (sink.enabled()) {
      char detail[64];
      std::snprintf(detail, sizeof detail, "saved at=%llu of=%llu",
                    static_cast<unsigned long long>(done),
                    static_cast<unsigned long long>(total));
      sink.add(telem::Counter::kCheckpointsSaved);
      sink.event(telem::EventType::kCheckpoint, 0, detail);
    }
  };

  // -- Chunk loop. ---------------------------------------------------------
  const std::uint64_t chunk_size =
      config_.checkpoint_interval != 0 ? config_.checkpoint_interval : total;
  const auto start = std::chrono::steady_clock::now();
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

    std::vector<std::uint64_t> last_progress(n, 0);
    std::vector<int> stalled_ms(n, 0);
    std::vector<int> kicks(n, 0);
    for (std::size_t w = 0; w < n; ++w) {
      last_progress[w] = workers[w]->progress();
    }
    const int poll_ms = config_.watchdog_poll_ms > 0 ? config_.watchdog_poll_ms
                                                     : 200;
    auto last_poll = std::chrono::steady_clock::now();
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(running_mutex);
        if (all_done.wait_for(lock, std::chrono::milliseconds(poll_ms),
                              [&] { return running == 0; })) {
          break;
        }
      }
      // A stall is charged the time that actually passed, so a late or
      // early poll can neither hide a wedge nor fake one.
      const auto now = std::chrono::steady_clock::now();
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
    // Checkpoint between chunks (workers quiescent). The final chunk's
    // image marks the campaign complete, so a rerun with resume=true is a
    // no-op instead of a replay.
    save(completed);
  }
  const auto stop = std::chrono::steady_clock::now();
  const double wall_seconds =
      std::chrono::duration<double>(stop - start).count();

  result.interrupted = completed < total;
  result.completed_iterations = completed;
  if (result.interrupted) {
    // Stop requested mid-budget: the checkpoint above already landed after
    // the last finished chunk; flush telemetry and report partial tallies
    // (no final distillation — the campaign is not over).
    par::ParallelCampaignConfig partial = cc;
    partial.distill_final = false;
    par::ParallelCampaign partial_campaign(make_target_, models_, partial);
    result.campaign =
        partial_campaign.aggregate(workers, exchange, wall_seconds);
  } else {
    result.campaign = campaign.aggregate(workers, exchange, wall_seconds);
  }

  if (sink.enabled()) {
    sink.event(telem::EventType::kCampaignStop, 0,
               result.interrupted ? "stop-requested" : "workers-joined");
    if (!cc.telemetry_dir.empty()) {
      telem::RateWindows rates;
      telem::export_live(*sink.hub(), rates, cc.telemetry_dir);
    }
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
