// Metrics registry — lock-free, allocation-free-on-the-hot-path campaign
// counters, gauges and log2 histograms.
//
// Sharding mirrors the SeedExchange: each worker writes a private
// cache-line-aligned Shard (worker id picks the slot), so the fuzzing hot
// loop never contends with peers or with snapshot readers. Writes are
// owner-thread-only and use a relaxed load+store pair rather than an
// atomic RMW — on every mainstream ISA that compiles to a plain add, which
// is what keeps a counter bump at ~1 ns and the whole instrumented hot
// path inside the bench_telemetry 2% budget. Snapshot readers sum the
// shards with relaxed loads; the result is a consistent-enough view for
// rate math (monotonic counters can only be observed late, never torn:
// 64-bit aligned atomics).
//
// Histogram buckets are log2 of the observed value (bucket 0 holds zeros,
// bucket i holds values with bit-width i), so one `observe` is two plain
// adds (bucket + running sum) and the per-histogram count is derived at
// snapshot time as the bucket total.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

namespace icsfuzz::telem {

/// Monotonic counters (resettable only by constructing a fresh registry).
enum class Counter : std::uint8_t {
  kExecutions = 0,
  kNewCoverageSeeds,    ///< valuable seeds (new-edge executions)
  kNewPaths,            ///< new whole-trace hashes
  kCrashFaults,         ///< fault reports excluding hangs
  kHangFaults,          ///< hang fault reports (budget or deadline)
  kUniqueCrashes,       ///< first sighting of a (kind, site) pair
  kImportedSeeds,       ///< peer seeds queued via import_external_seed
  kCrackRuns,           ///< File Cracker invocations
  kBatchSeeds,          ///< combinatorial-batch seeds scheduled
  kDistillPasses,       ///< auto-distill minimizations
  kDistillDroppedSeeds, ///< retained seeds pruned by auto-distill
  kOopRestarts,         ///< fork-server respawns after a loss
  kOopRetries,          ///< packets re-run across a respawn
  kOopHangs,            ///< wall-clock deadline kills (SIGKILLed child)
  kOopServerLost,       ///< executions lost even after the respawn retry
  kOopServerExits,      ///< orderly fork-server exits absorbed by respawn
  kOopChildRecycles,    ///< fork-server children recycled (budget/crash/hang)
  kOopOomKills,         ///< resource-jail allocation-failure kills
  kOopSpeculativeDiscards,  ///< in-flight executions the fuzzer's window
                            ///< drained unseen after feedback moved
  kOopAdoptFullScans,   ///< out-of-process traces adopted by the full-map
                        ///< scan (no usable dirty-word list)
  kCheckpointsSaved,    ///< supervisor checkpoints written to disk
  kWatchdogKicks,       ///< wedged workers remediated by the watchdog
  kSessionsExecuted,    ///< stateful session executions (session backends)
  kSessionMessages,     ///< framed messages driven across all sessions
  kSessionNewStates,    ///< first sightings of a hashed session state
  kCount,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Last-written-value metrics (summed across shards on snapshot, so a
/// per-worker gauge like kWorkersRunning merges into a campaign total).
enum class Gauge : std::uint8_t {
  kCorpusPuzzles = 0,  ///< puzzle-corpus size
  kRetainedSeeds,      ///< retained valuable-seed pool size
  kPathsCovered,       ///< accumulated distinct paths
  kEdgesCovered,       ///< accumulated covered edges
  kWorkersRunning,     ///< 1 while the shard's worker loop is live
  kCount,
};
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);

enum class Histogram : std::uint8_t {
  kExecLatencyNs = 0,  ///< sampled wall time of one execution
  kPacketBytes,        ///< generated packet size
  kTraceDirtyWords,    ///< dirty coverage words per execution
  kOopIterationsPerChild,  ///< executions a fork-server child served before
                           ///< recycling (observed at each recycle)
  kCount,
};
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(Histogram::kCount);

/// Exported snake_case metric names (stable; part of the snapshot schema).
std::string_view to_string(Counter counter);
std::string_view to_string(Gauge gauge);
std::string_view to_string(Histogram histogram);

/// Fixed log2 bucket count: bucket 47 holds everything >= 2^46 ns (~19.5h
/// as a latency), far beyond any observable single value here.
inline constexpr std::size_t kHistBuckets = 48;

/// Bucket index of a value: 0 for 0, else its bit width (clamped).
[[nodiscard]] inline std::size_t bucket_of(std::uint64_t value) {
  if (value == 0) return 0;
  const std::size_t width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistBuckets ? width : kHistBuckets - 1;
}

/// Smallest value that lands in bucket `index` (0 for bucket 0).
[[nodiscard]] inline std::uint64_t bucket_floor(std::size_t index) {
  return index == 0 ? 0 : std::uint64_t{1} << (index - 1);
}

/// Largest value that lands in bucket `index` (the Prometheus `le` bound;
/// the last bucket is unbounded).
[[nodiscard]] inline std::uint64_t bucket_ceil(std::size_t index) {
  if (index == 0) return 0;
  if (index >= kHistBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << index) - 1;
}

/// One worker's private slice of the registry. Exactly one thread writes a
/// shard at a time (the worker that owns it); any thread may read.
struct alignas(64) Shard {
  std::atomic<std::uint64_t> counters[kCounterCount] = {};
  std::atomic<std::uint64_t> gauges[kGaugeCount] = {};
  std::atomic<std::uint64_t> hist_buckets[kHistogramCount][kHistBuckets] = {};
  std::atomic<std::uint64_t> hist_sum[kHistogramCount] = {};

  // Owner-thread-only writes: relaxed load+store compiles to a plain add,
  // never an atomic RMW. Readers observe each cell atomically.
  void add(Counter counter, std::uint64_t delta = 1) {
    auto& cell = counters[static_cast<std::size_t>(counter)];
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }
  void set(Gauge gauge, std::uint64_t value) {
    gauges[static_cast<std::size_t>(gauge)].store(value,
                                                  std::memory_order_relaxed);
  }
  void observe(Histogram histogram, std::uint64_t value) {
    const std::size_t h = static_cast<std::size_t>(histogram);
    auto& bucket = hist_buckets[h][bucket_of(value)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    auto& sum = hist_sum[h];
    sum.store(sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  }
};

/// Point-in-time merge of all shards (plain integers; safe to copy, store
/// in RateWindows rings, or serialize).
struct HistogramSnapshot {
  std::uint64_t buckets[kHistBuckets] = {};
  std::uint64_t count = 0;  ///< derived: sum of buckets
  std::uint64_t sum = 0;

  [[nodiscard]] bool operator==(const HistogramSnapshot&) const = default;

  /// Mean observed value (0 when empty).
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

struct Snapshot {
  std::uint64_t ts_ns = 0;
  std::uint64_t counters[kCounterCount] = {};
  std::uint64_t gauges[kGaugeCount] = {};
  HistogramSnapshot histograms[kHistogramCount] = {};

  [[nodiscard]] std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const {
    return gauges[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] const HistogramSnapshot& histogram(Histogram h) const {
    return histograms[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] bool operator==(const Snapshot&) const = default;
};

class MetricsRegistry {
 public:
  /// Shard slots; worker ids map in modulo (a 64-way campaign uses every
  /// slot exclusively; beyond that, workers start sharing — still correct
  /// for counters because writes are per-owner serialized by the modulo
  /// only when worker counts exceed kShards, which no current campaign
  /// configuration does).
  static constexpr std::size_t kShards = 64;

  MetricsRegistry() : shards_(std::make_unique<Shard[]>(kShards)) {}

  [[nodiscard]] Shard& shard(std::uint32_t worker) {
    return shards_[worker & (kShards - 1)];
  }

  /// Sums every shard into `out` (ts_ns left untouched — the Telemetry hub
  /// stamps it from its clock).
  void merge_into(Snapshot& out) const;

 private:
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace icsfuzz::telem
