#include "telemetry/metrics.hpp"

namespace icsfuzz::telem {

std::string_view to_string(Counter counter) {
  switch (counter) {
    case Counter::kExecutions: return "executions";
    case Counter::kNewCoverageSeeds: return "new_coverage_seeds";
    case Counter::kNewPaths: return "new_paths";
    case Counter::kCrashFaults: return "crash_faults";
    case Counter::kHangFaults: return "hang_faults";
    case Counter::kUniqueCrashes: return "unique_crashes";
    case Counter::kImportedSeeds: return "imported_seeds";
    case Counter::kCrackRuns: return "crack_runs";
    case Counter::kBatchSeeds: return "batch_seeds";
    case Counter::kDistillPasses: return "distill_passes";
    case Counter::kDistillDroppedSeeds: return "distill_dropped_seeds";
    case Counter::kOopRestarts: return "oop_restarts";
    case Counter::kOopRetries: return "oop_retries";
    case Counter::kOopHangs: return "oop_hangs";
    case Counter::kOopServerLost: return "oop_server_lost";
    case Counter::kOopServerExits: return "oop_server_exits";
    case Counter::kOopChildRecycles: return "oop_child_recycles";
    case Counter::kOopOomKills: return "oop_oom_kills";
    case Counter::kOopSpeculativeDiscards: return "oop_speculative_discards";
    case Counter::kOopAdoptFullScans: return "oop_adopt_full_scans";
    case Counter::kCheckpointsSaved: return "checkpoints_saved";
    case Counter::kWatchdogKicks: return "watchdog_kicks";
    case Counter::kSessionsExecuted: return "sessions_executed";
    case Counter::kSessionMessages: return "session_messages";
    case Counter::kSessionNewStates: return "session_new_states";
    case Counter::kCount: break;
  }
  return "?";
}

std::string_view to_string(Gauge gauge) {
  switch (gauge) {
    case Gauge::kCorpusPuzzles: return "corpus_puzzles";
    case Gauge::kRetainedSeeds: return "retained_seeds";
    case Gauge::kPathsCovered: return "paths_covered";
    case Gauge::kEdgesCovered: return "edges_covered";
    case Gauge::kWorkersRunning: return "workers_running";
    case Gauge::kCount: break;
  }
  return "?";
}

std::string_view to_string(Histogram histogram) {
  switch (histogram) {
    case Histogram::kExecLatencyNs: return "exec_latency_ns";
    case Histogram::kPacketBytes: return "packet_bytes";
    case Histogram::kTraceDirtyWords: return "trace_dirty_words";
    case Histogram::kOopIterationsPerChild: return "oop_iterations_per_child";
    case Histogram::kCount: break;
  }
  return "?";
}

void MetricsRegistry::merge_into(Snapshot& out) const {
  for (std::size_t c = 0; c < kCounterCount; ++c) out.counters[c] = 0;
  for (std::size_t g = 0; g < kGaugeCount; ++g) out.gauges[g] = 0;
  for (std::size_t h = 0; h < kHistogramCount; ++h) {
    out.histograms[h] = HistogramSnapshot{};
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    const Shard& shard = shards_[s];
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      out.counters[c] += shard.counters[c].load(std::memory_order_relaxed);
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
      out.gauges[g] += shard.gauges[g].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kHistogramCount; ++h) {
      HistogramSnapshot& hist = out.histograms[h];
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        hist.buckets[b] +=
            shard.hist_buckets[h][b].load(std::memory_order_relaxed);
      }
      hist.sum += shard.hist_sum[h].load(std::memory_order_relaxed);
    }
  }
  for (std::size_t h = 0; h < kHistogramCount; ++h) {
    HistogramSnapshot& hist = out.histograms[h];
    hist.count = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) hist.count += hist.buckets[b];
  }
}

}  // namespace icsfuzz::telem
