// Telemetry hub + Sink — how the engine talks to the observability layer.
//
// A Telemetry owns the three campaign-wide surfaces: the shared Clock, the
// sharded MetricsRegistry and the EventJournal. Engine components never
// hold the hub directly; they hold a Sink — a two-pointer handle binding
// one worker's registry shard to the hub. Every Sink operation is
// null-guarded, so a default-constructed (disabled) Sink turns the entire
// instrumentation surface into a predictable not-taken branch; that branch
// plus the plain-add shard writes is the whole hot-path cost, gated <= 2%
// by bench_telemetry.
//
// Determinism contract: nothing in this layer is ever *read* by the
// fuzzing loop — sinks record, exporters observe. Enabling or disabling
// telemetry therefore cannot change a campaign's coverage or corpus
// trajectory (asserted by test_telemetry.cpp and bench_telemetry).
#pragma once

#include <cstdint>
#include <string_view>

#include "telemetry/clock.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"

namespace icsfuzz::telem {

/// Exec-latency clock sampling: one steady-clock read pair per 64
/// executions, amortizing the ~40ns cost to well under a nanosecond per
/// execution.
inline constexpr std::uint64_t kLatencySampleInterval = 64;

/// Whether execution `exec_index` samples its latency: exactly one in each
/// aligned block of kLatencySampleInterval executions, at an offset hashed
/// from the block number (the top bits of a Fibonacci hash, one multiply).
/// Deterministic (identical across repeats), yet no power-of-two period
/// aliases with it — a persistent child budget of 1024 puts every recycle's
/// fork on the same residue, which an `index % 64` rule would sample every
/// time.
[[nodiscard]] inline bool latency_sampled(std::uint64_t exec_index) {
  static_assert(kLatencySampleInterval == 64, "the hash keeps 6 bits");
  const std::uint64_t block = exec_index / kLatencySampleInterval;
  return (exec_index % kLatencySampleInterval) ==
         (block * 0x9E3779B97F4A7C15ULL) >> 58;
}

class Telemetry {
 public:
  explicit Telemetry(std::size_t journal_capacity = 4096)
      : journal_(journal_capacity) {}

  [[nodiscard]] Clock& clock() { return clock_; }
  [[nodiscard]] const Clock& clock() const { return clock_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] EventJournal& journal() { return journal_; }
  [[nodiscard]] const EventJournal& journal() const { return journal_; }

  /// Merges all shards and stamps the clock.
  [[nodiscard]] Snapshot snapshot() const {
    Snapshot out;
    metrics_.merge_into(out);
    out.ts_ns = clock_.now_ns();
    return out;
  }

  /// The process-wide default hub (what FuzzerConfig binds by default).
  static Telemetry& global();

 private:
  Clock clock_;
  MetricsRegistry metrics_;
  EventJournal journal_;
};

class Sink {
 public:
  /// Disabled sink: every operation is a cheap no-op.
  Sink() = default;

  /// Binds worker `worker`'s shard of `hub` (hub must outlive the sink).
  Sink(Telemetry* hub, std::uint32_t worker)
      : hub_(hub), shard_(&hub->metrics().shard(worker)), worker_(worker) {}

  /// Sink on the process-wide default hub.
  static Sink global(std::uint32_t worker) {
    return Sink(&Telemetry::global(), worker);
  }

  [[nodiscard]] bool enabled() const { return shard_ != nullptr; }
  explicit operator bool() const { return enabled(); }

  void add(Counter counter, std::uint64_t delta = 1) const {
    if (shard_ != nullptr) shard_->add(counter, delta);
  }
  void set(Gauge gauge, std::uint64_t value) const {
    if (shard_ != nullptr) shard_->set(gauge, value);
  }
  void observe(Histogram histogram, std::uint64_t value) const {
    if (shard_ != nullptr) shard_->observe(histogram, value);
  }

  /// Telemetry-clock reading (0 when disabled).
  [[nodiscard]] std::uint64_t now_ns() const {
    return hub_ != nullptr ? hub_->clock().now_ns() : 0;
  }

  /// Journals an event stamped with the hub clock and this sink's worker.
  void event(EventType type, std::uint64_t hash,
             std::string_view detail) const {
    if (hub_ != nullptr) {
      hub_->journal().append(type, hub_->clock().now_ns(), worker_, hash,
                             detail);
    }
  }

  [[nodiscard]] Telemetry* hub() const { return hub_; }
  [[nodiscard]] std::uint32_t worker() const { return worker_; }

 private:
  Telemetry* hub_ = nullptr;
  Shard* shard_ = nullptr;
  std::uint32_t worker_ = 0;
};

}  // namespace icsfuzz::telem
