// Tests for the telemetry layer: clock manual mode, histogram bucket math,
// multi-threaded shard-merge equivalence, windowed-rate math against a
// hand-computed oracle, journal ring + JSONL round-trips (including via
// Persistence), exporter format round-trips, and the determinism contract —
// a fixed-seed campaign's trajectory is identical telemetry-on vs off.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "fuzzer/fuzzer.hpp"
#include "fuzzer/persistence.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/windows.hpp"

namespace icsfuzz::telem {
namespace {

namespace fs = std::filesystem;

class SessionDir {
 public:
  SessionDir() {
    path_ = fs::temp_directory_path() /
            ("icsfuzz-telem-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
  }
  ~SessionDir() {
    std::error_code error;
    fs::remove_all(path_, error);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

TEST(TelemetryClock, ManualModeIsDeterministic) {
  Clock clock;
  EXPECT_FALSE(clock.manual());
  clock.set_manual(1000);
  EXPECT_TRUE(clock.manual());
  EXPECT_EQ(clock.now_ns(), 1000u);
  EXPECT_EQ(clock.now_ns(), 1000u);  // frozen until advanced
  clock.advance(500);
  EXPECT_EQ(clock.now_ns(), 1500u);
}

TEST(TelemetryClock, SteadyModeIsMonotonicFromZero) {
  Clock clock;
  const std::uint64_t first = clock.now_ns();
  const std::uint64_t second = clock.now_ns();
  EXPECT_GE(second, first);
  EXPECT_LT(first, kSecondNs);  // campaign-relative, not epoch-relative
}

TEST(TelemetryMetrics, HistogramBucketBoundaries) {
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  EXPECT_EQ(bucket_of(7), 3u);
  EXPECT_EQ(bucket_of(8), 4u);
  EXPECT_EQ(bucket_of(~std::uint64_t{0}), kHistBuckets - 1);

  for (std::size_t bucket = 0; bucket < kHistBuckets - 1; ++bucket) {
    EXPECT_EQ(bucket_of(bucket_floor(bucket)), bucket) << bucket;
    EXPECT_EQ(bucket_of(bucket_ceil(bucket)), bucket) << bucket;
    if (bucket > 0) {
      // The bucket boundaries tile the integers with no gaps or overlaps.
      EXPECT_EQ(bucket_floor(bucket), bucket_ceil(bucket - 1) + 1) << bucket;
    }
  }
  EXPECT_EQ(bucket_ceil(kHistBuckets - 1), ~std::uint64_t{0});
}

TEST(TelemetryMetrics, ObserveAccumulatesBucketsAndSum) {
  Telemetry hub;
  const Sink sink(&hub, 0);
  sink.observe(Histogram::kPacketBytes, 0);
  sink.observe(Histogram::kPacketBytes, 5);
  sink.observe(Histogram::kPacketBytes, 5);
  sink.observe(Histogram::kPacketBytes, 260);

  const Snapshot snap = hub.snapshot();
  const HistogramSnapshot& hist = snap.histogram(Histogram::kPacketBytes);
  EXPECT_EQ(hist.count, 4u);
  EXPECT_EQ(hist.sum, 270u);
  EXPECT_EQ(hist.buckets[bucket_of(0)], 1u);
  EXPECT_EQ(hist.buckets[bucket_of(5)], 2u);
  EXPECT_EQ(hist.buckets[bucket_of(260)], 1u);
  EXPECT_DOUBLE_EQ(hist.mean(), 270.0 / 4.0);
}

TEST(TelemetryMetrics, ShardMergeEquivalenceUnderWorkers) {
  // W worker threads each pound a private shard through their own sink; the
  // merged snapshot must equal the analytic per-metric totals exactly.
  constexpr std::size_t kWorkers = 8;
  constexpr std::uint64_t kOpsPerWorker = 20000;
  Telemetry hub;
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&hub, w] {
      const Sink sink(&hub, static_cast<std::uint32_t>(w));
      for (std::uint64_t i = 0; i < kOpsPerWorker; ++i) {
        sink.add(Counter::kExecutions);
        sink.add(Counter::kBatchSeeds, 3);
        sink.observe(Histogram::kPacketBytes, i % 100);
      }
      sink.set(Gauge::kPathsCovered, w + 1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const Snapshot snap = hub.snapshot();
  EXPECT_EQ(snap.counter(Counter::kExecutions), kWorkers * kOpsPerWorker);
  EXPECT_EQ(snap.counter(Counter::kBatchSeeds), kWorkers * kOpsPerWorker * 3);
  // Gauges sum across shards: 1 + 2 + ... + kWorkers.
  EXPECT_EQ(snap.gauge(Gauge::kPathsCovered),
            kWorkers * (kWorkers + 1) / 2);
  const HistogramSnapshot& hist = snap.histogram(Histogram::kPacketBytes);
  EXPECT_EQ(hist.count, kWorkers * kOpsPerWorker);
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 0; i < kOpsPerWorker; ++i) expected_sum += i % 100;
  EXPECT_EQ(hist.sum, kWorkers * expected_sum);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t bucket : hist.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, hist.count);
}

TEST(TelemetryMetrics, DisabledSinkIsInert) {
  const Sink sink;
  EXPECT_FALSE(sink.enabled());
  sink.add(Counter::kExecutions);
  sink.set(Gauge::kPathsCovered, 7);
  sink.observe(Histogram::kPacketBytes, 9);
  sink.event(EventType::kCrash, 1, "nope");
  EXPECT_EQ(sink.now_ns(), 0u);  // nothing to crash into, nothing recorded
}

Snapshot snapshot_at(std::uint64_t ts_ns, std::uint64_t executions,
                     std::uint64_t edges) {
  Snapshot snap;
  snap.ts_ns = ts_ns;
  snap.counters[static_cast<std::size_t>(Counter::kExecutions)] = executions;
  snap.gauges[static_cast<std::size_t>(Gauge::kEdgesCovered)] = edges;
  return snap;
}

TEST(TelemetryWindows, RateMathMatchesHandOracle) {
  RateWindows rates;
  // One snapshot per second: 1000 execs/sec steady, edges growing 10/sec
  // for the first 5 seconds then flat.
  for (std::uint64_t second = 0; second <= 10; ++second) {
    rates.push(snapshot_at(second * kSecondNs, second * 1000,
                           second < 5 ? second * 10 : 50));
  }

  const RateWindows::Rate one_sec =
      rates.counter_rate(Counter::kExecutions, kSecondNs);
  ASSERT_TRUE(one_sec.valid);
  EXPECT_DOUBLE_EQ(one_sec.per_sec, 1000.0);
  EXPECT_DOUBLE_EQ(one_sec.window_seconds, 1.0);

  const RateWindows::Rate five_sec =
      rates.counter_rate(Counter::kExecutions, 5 * kSecondNs);
  ASSERT_TRUE(five_sec.valid);
  EXPECT_DOUBLE_EQ(five_sec.per_sec, 1000.0);
  EXPECT_DOUBLE_EQ(five_sec.window_seconds, 5.0);

  // The 60s window exceeds the ring's reach: falls back to since-start and
  // reports the actual 10s span.
  const RateWindows::Rate sixty_sec =
      rates.counter_rate(Counter::kExecutions, 60 * kSecondNs);
  ASSERT_TRUE(sixty_sec.valid);
  EXPECT_DOUBLE_EQ(sixty_sec.per_sec, 1000.0);
  EXPECT_DOUBLE_EQ(sixty_sec.window_seconds, 10.0);

  // Edge gauge went flat after second 5: the trailing 1s rate is 0, the
  // since-start rate averages 50 edges over 10 seconds.
  EXPECT_DOUBLE_EQ(rates.gauge_rate(Gauge::kEdgesCovered, kSecondNs).per_sec,
                   0.0);
  EXPECT_DOUBLE_EQ(
      rates.gauge_rate(Gauge::kEdgesCovered, 60 * kSecondNs).per_sec, 5.0);
}

TEST(TelemetryWindows, FewerThanTwoSamplesIsInvalid) {
  RateWindows rates;
  EXPECT_FALSE(rates.counter_rate(Counter::kExecutions, kSecondNs).valid);
  rates.push(snapshot_at(0, 0, 0));
  EXPECT_FALSE(rates.counter_rate(Counter::kExecutions, kSecondNs).valid);
  rates.push(snapshot_at(kSecondNs, 500, 0));
  const RateWindows::Rate rate =
      rates.counter_rate(Counter::kExecutions, kSecondNs);
  ASSERT_TRUE(rate.valid);
  EXPECT_DOUBLE_EQ(rate.per_sec, 500.0);
}

TEST(TelemetryWindows, RingEvictsOldestBeyondCapacity) {
  RateWindows rates(4);
  for (std::uint64_t second = 0; second < 10; ++second) {
    rates.push(snapshot_at(second * kSecondNs, second * 100, 0));
  }
  EXPECT_EQ(rates.size(), 4u);
  ASSERT_NE(rates.newest(), nullptr);
  EXPECT_EQ(rates.newest()->ts_ns, 9 * kSecondNs);
  // A huge window reaches the oldest retained entry (second 6), not the
  // evicted start of the series.
  const RateWindows::Rate rate =
      rates.counter_rate(Counter::kExecutions, 60 * kSecondNs);
  ASSERT_TRUE(rate.valid);
  EXPECT_DOUBLE_EQ(rate.window_seconds, 3.0);
}

TEST(TelemetryJournal, RingKeepsNewestAndCountsDropped) {
  EventJournal journal(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    journal.append(EventType::kCrash, i * 10, 0, i, "x");
  }
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.total_appended(), 6u);
  EXPECT_EQ(journal.dropped(), 2u);
  const std::vector<Event> events = journal.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().hash, 2u);  // oldest survivor
  EXPECT_EQ(events.back().hash, 5u);
}

TEST(TelemetryJournal, JsonlRoundTripPreservesEverything) {
  EventJournal journal;
  journal.append(EventType::kCrash, 123456789, 3, 0xDEADBEEFCAFEF00DULL,
                 "SEGV site=0000beef");
  journal.append(EventType::kSeedImport, 42, 0, 0, "seeds=5 sync=2");
  // Detail with JSON-hostile characters must escape cleanly.
  journal.append(EventType::kDistill, 7, 1, 1, "quote=\" slash=\\ tab=\t");

  const std::string jsonl = journal.to_jsonl();
  const std::vector<Event> parsed = EventJournal::from_jsonl(jsonl);
  const std::vector<Event> original = journal.events();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], original[i]) << i;
  }
}

TEST(TelemetryJournal, MalformedLinesAreSkipped) {
  const std::string text =
      "{\"ts_ns\":1,\"type\":\"crash\",\"worker\":0,\"hash\":"
      "\"0000000000000001\",\"detail\":\"ok\"}\n"
      "not json\n"
      "{\"ts_ns\":2,\"type\":\"no-such-event\",\"worker\":0,\"hash\":"
      "\"0000000000000000\",\"detail\":\"bad type\"}\n"
      "\n"
      "{\"ts_ns\":3,\"type\":\"hang\",\"worker\":1,\"hash\":"
      "\"0000000000000002\",\"detail\":\"ok too\"}\n";
  const std::vector<Event> events = EventJournal::from_jsonl(text);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::kCrash);
  EXPECT_EQ(events[1].type, EventType::kHang);
  EXPECT_EQ(events[1].worker, 1u);
}

TEST(TelemetryJournal, TornTrailingLineIsDroppedWhole) {
  // A live exporter overwritten mid-write (or a killed writer) leaves an
  // unterminated tail; `icsfuzz-stats --follow` must never half-parse it.
  EventJournal journal;
  journal.append(EventType::kCampaignStart, 1, 0, 0, "workers=1");
  journal.append(EventType::kCrash, 2, 0, 0xBEEF, "SEGV");
  const std::string jsonl = journal.to_jsonl();

  // Cut inside the final record, at every byte offset of its last line.
  const std::size_t last_line = jsonl.rfind('\n', jsonl.size() - 2) + 1;
  for (std::size_t cut = last_line + 1; cut < jsonl.size(); ++cut) {
    const std::vector<Event> events =
        EventJournal::from_jsonl(jsonl.substr(0, cut));
    ASSERT_EQ(events.size(), 1u) << "cut at byte " << cut;
    EXPECT_EQ(events[0].type, EventType::kCampaignStart);
  }
  // The intact document still yields both.
  EXPECT_EQ(EventJournal::from_jsonl(jsonl).size(), 2u);
}

TEST(TelemetryExport, SnapshotJsonRoundTripIsExact) {
  Telemetry hub;
  hub.clock().set_manual(987654321);
  const Sink sink(&hub, 0);
  sink.add(Counter::kExecutions, 123456);
  sink.add(Counter::kUniqueCrashes, 3);
  sink.set(Gauge::kEdgesCovered, 789);
  sink.observe(Histogram::kExecLatencyNs, 0);
  sink.observe(Histogram::kExecLatencyNs, 300);
  sink.observe(Histogram::kPacketBytes, ~std::uint64_t{0});

  const Snapshot snap = hub.snapshot();
  const std::optional<Snapshot> parsed = snapshot_from_json(to_json(snap));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, snap);
}

TEST(TelemetryExport, RejectsWrongSchemaAndGarbage) {
  EXPECT_FALSE(snapshot_from_json("").has_value());
  EXPECT_FALSE(snapshot_from_json("{}").has_value());
  EXPECT_FALSE(snapshot_from_json("{\"schema\":\"other-v9\"}").has_value());
  EXPECT_FALSE(snapshot_from_json("not json at all").has_value());
}

TEST(TelemetryExport, PrometheusFormatShape) {
  Telemetry hub;
  const Sink sink(&hub, 0);
  sink.add(Counter::kExecutions, 1000);
  sink.set(Gauge::kCorpusPuzzles, 12);
  sink.observe(Histogram::kPacketBytes, 5);
  sink.observe(Histogram::kPacketBytes, 100);

  const std::string text = to_prometheus(hub.snapshot());
  EXPECT_NE(text.find("icsfuzz_executions_total 1000"), std::string::npos);
  EXPECT_NE(text.find("icsfuzz_corpus_puzzles 12"), std::string::npos);
  EXPECT_NE(text.find("icsfuzz_packet_bytes_count 2"), std::string::npos);
  EXPECT_NE(text.find("icsfuzz_packet_bytes_sum 105"), std::string::npos);
  // Cumulative buckets: the +Inf bucket always carries the total count.
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE icsfuzz_packet_bytes histogram"),
            std::string::npos);
}

TEST(TelemetryExport, LiveExportWritesAllThreeFiles) {
  SessionDir dir;
  Telemetry hub;
  hub.clock().set_manual(0);
  const Sink sink(&hub, 0);
  sink.add(Counter::kExecutions, 100);
  sink.event(EventType::kCampaignStart, 0, "workers=1");
  RateWindows rates;
  ASSERT_FALSE(export_live(hub, rates, dir.str()).has_value());
  hub.clock().advance(kSecondNs);
  sink.add(Counter::kExecutions, 900);
  ASSERT_FALSE(export_live(hub, rates, dir.str()).has_value());
  EXPECT_EQ(rates.size(), 2u);

  const fs::path root(dir.str());
  EXPECT_TRUE(fs::exists(root / std::string(kMetricsFile)));
  EXPECT_TRUE(fs::exists(root / std::string(kPrometheusFile)));
  EXPECT_TRUE(fs::exists(root / std::string(kJournalFile)));

  // The written snapshot parses and carries the live rates.
  std::ifstream in(root / std::string(kMetricsFile));
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::optional<Snapshot> parsed = snapshot_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->counter(Counter::kExecutions), 1000u);
  EXPECT_NE(json.find("\"rates\""), std::string::npos);
  EXPECT_NE(json.find("\"execs_per_sec\":900"), std::string::npos);
}

TEST(TelemetryExport, WriteTextAtomicReportsAWriteLostAtClose) {
  // A text shorter than the stream's buffer reaches the file only when the
  // stream closes. A forked child caps its own file size at 500 bytes,
  // with SIGXFSZ ignored so the write fails with EFBIG instead of killing
  // it, and writes 900: the call must fail, leaving the previous file in
  // place and no tmp file behind.
  SessionDir dir;
  fs::create_directories(dir.str());
  const std::string path = dir.str() + "/out.txt";
  ASSERT_FALSE(write_text_atomic(path, "previous").has_value());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    const struct rlimit limit {500, 500};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(2);
    ::_exit(write_text_atomic(path, std::string(900, 'x')).has_value() ? 0
                                                                       : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the lost write returned success";
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "previous");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

fuzz::Fuzzer fuzz_modbus(Sink sink, std::uint64_t iterations) {
  static proto::ModbusServer server;  // reset() by every execution
  static const model::DataModelSet models = pits::modbus_pit();
  fuzz::FuzzerConfig config;
  config.strategy = fuzz::Strategy::PeachStar;
  config.rng_seed = 77;
  config.telemetry = sink;
  fuzz::Fuzzer fuzzer(server, models, config);
  fuzzer.run(iterations);
  return fuzzer;
}

TEST(TelemetryDeterminism, TrajectoryIdenticalOnVsOff) {
  Telemetry hub;
  const fuzz::Fuzzer with = fuzz_modbus(Sink(&hub, 0), 12000);
  const fuzz::Fuzzer without = fuzz_modbus(Sink(), 12000);

  EXPECT_EQ(with.path_count(), without.path_count());
  EXPECT_EQ(with.executor().edge_count(), without.executor().edge_count());
  EXPECT_EQ(with.crashes().unique_count(), without.crashes().unique_count());
  EXPECT_EQ(with.corpus().size(), without.corpus().size());
  ASSERT_EQ(with.retained_seeds().size(), without.retained_seeds().size());
  for (std::size_t i = 0; i < with.retained_seeds().size(); ++i) {
    EXPECT_EQ(with.retained_seeds()[i].bytes, without.retained_seeds()[i].bytes)
        << i;
  }
  const auto& with_series = with.stats().checkpoints();
  const auto& without_series = without.stats().checkpoints();
  ASSERT_EQ(with_series.size(), without_series.size());
  for (std::size_t i = 0; i < with_series.size(); ++i) {
    EXPECT_EQ(with_series[i].executions, without_series[i].executions) << i;
    EXPECT_EQ(with_series[i].paths, without_series[i].paths) << i;
    EXPECT_EQ(with_series[i].edges, without_series[i].edges) << i;
    EXPECT_EQ(with_series[i].unique_crashes, without_series[i].unique_crashes)
        << i;
    EXPECT_EQ(with_series[i].corpus_size, without_series[i].corpus_size) << i;
    // wall_ns is the one column allowed to differ (0 when telemetry is off).
    EXPECT_EQ(without_series[i].wall_ns, 0u) << i;
  }
}

TEST(TelemetryDeterminism, CampaignCountersMatchEngineTallies) {
  Telemetry hub;
  const fuzz::Fuzzer fuzzer = fuzz_modbus(Sink(&hub, 0), 15000);
  const Snapshot snap = hub.snapshot();
  EXPECT_EQ(snap.counter(Counter::kExecutions),
            fuzzer.executor().executions());
  EXPECT_EQ(snap.counter(Counter::kUniqueCrashes),
            fuzzer.crashes().unique_count());
  EXPECT_EQ(snap.gauge(Gauge::kPathsCovered), fuzzer.path_count());
  EXPECT_EQ(snap.gauge(Gauge::kEdgesCovered),
            fuzzer.executor().edge_count());
  EXPECT_EQ(snap.gauge(Gauge::kRetainedSeeds),
            fuzzer.retained_seeds().size());
  EXPECT_EQ(snap.gauge(Gauge::kCorpusPuzzles), fuzzer.corpus().size());
  // Latency sampling fires every 64th execution, so the histogram holds
  // roughly executions/64 observations.
  const HistogramSnapshot& latency =
      snap.histogram(Histogram::kExecLatencyNs);
  EXPECT_NEAR(static_cast<double>(latency.count),
              static_cast<double>(fuzzer.executor().executions()) / 64.0,
              2.0);
  // Every execution observes its packet size.
  EXPECT_EQ(snap.histogram(Histogram::kPacketBytes).count,
            fuzzer.executor().executions());
}

/// A Modbus server whose every 1024th execution costs one manual-clock
/// second — the way a budget-1024 persistent campaign pays its recycle fork
/// on every 1024th execution.
class RecycleCostTarget final : public ProtocolTarget {
 public:
  static constexpr std::uint64_t kSlowNs = 1'000'000'000;

  explicit RecycleCostTarget(Clock& clock) : clock_(clock) {}
  void bind(const fuzz::Fuzzer* fuzzer) { fuzzer_ = fuzzer; }

  [[nodiscard]] std::string_view name() const override {
    return server_.name();
  }
  void reset() override { server_.reset(); }
  Bytes process(ByteSpan packet) override { return server_.process(packet); }
  void process_into(ByteSpan packet, Bytes& response) override {
    // The executor counts an execution before it runs it.
    if (fuzzer_ != nullptr &&
        (fuzzer_->executor().executions() - 1) % 1024 == 0) {
      clock_.advance(kSlowNs);
    }
    server_.process_into(packet, response);
  }

 private:
  Clock& clock_;
  const fuzz::Fuzzer* fuzzer_ = nullptr;
  proto::ModbusServer server_;
};

TEST(TelemetryDeterminism, LatencySamplingDoesNotAliasWithPowerOfTwoBudgets) {
  Telemetry hub;
  hub.clock().set_manual(0);
  RecycleCostTarget target(hub.clock());
  const model::DataModelSet models = pits::modbus_pit();
  fuzz::FuzzerConfig config;
  config.strategy = fuzz::Strategy::PeachStar;
  config.rng_seed = 77;
  config.telemetry = Sink(&hub, 0);
  fuzz::Fuzzer fuzzer(target, models, config);
  target.bind(&fuzzer);
  constexpr std::uint64_t kSlowExecs = 128;
  fuzzer.run(1024 * kSlowExecs);

  const HistogramSnapshot latency =
      hub.snapshot().histogram(Histogram::kExecLatencyNs);
  // The rate is unchanged: one sample per 64 executions.
  EXPECT_NEAR(static_cast<double>(latency.count),
              static_cast<double>(fuzzer.executor().executions()) / 64.0, 2.0);
  // Every other execution takes 0 ns, so the sum counts the slow ones that
  // were sampled: ~1/64 of them (2 expected), where an `index % 64` rule
  // samples all 128.
  const std::uint64_t slow_sampled = latency.sum / RecycleCostTarget::kSlowNs;
  EXPECT_LE(slow_sampled, kSlowExecs / 8);
}

TEST(TelemetryDeterminism, StatsSeriesCarriesManualClockTimestamps) {
  Telemetry hub;
  hub.clock().set_manual(5 * kSecondNs);
  const fuzz::Fuzzer fuzzer = fuzz_modbus(Sink(&hub, 0), 2000);
  const auto& series = fuzzer.stats().checkpoints();
  ASSERT_FALSE(series.empty());
  for (const fuzz::Checkpoint& point : series) {
    EXPECT_EQ(point.wall_ns, 5 * kSecondNs);
  }
  // The CSV gained a trailing wall_ms column; the original columns lead.
  const std::string csv = fuzzer.stats().to_csv();
  EXPECT_NE(csv.find("executions,paths,edges,unique_crashes,corpus,wall_ms"),
            std::string::npos);
  EXPECT_NE(csv.find(",5000\n"), std::string::npos);
}

TEST(TelemetryPersistence, JournalAndSnapshotRoundTripThroughSession) {
  SessionDir dir;
  Telemetry hub;
  const fuzz::Fuzzer fuzzer = fuzz_modbus(Sink(&hub, 0), 15000);
  ASSERT_FALSE(fuzz::save_session(fuzzer, dir.str()).has_value());

  const fs::path root(dir.str());
  ASSERT_TRUE(fs::exists(root / "telemetry.json"));
  ASSERT_TRUE(fs::exists(root / "journal.jsonl"));

  const std::vector<Event> loaded = fuzz::load_journal(dir.str());
  const std::vector<Event> live = hub.journal().events();
  ASSERT_EQ(loaded.size(), live.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i], live[i]) << i;
  }

  const std::optional<Snapshot> snap =
      fuzz::load_telemetry_snapshot(dir.str());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->counter(Counter::kExecutions),
            fuzzer.executor().executions());
  EXPECT_EQ(snap->gauge(Gauge::kPathsCovered), fuzzer.path_count());
}

TEST(TelemetryPersistence, DisabledTelemetryWritesNoArtefacts) {
  SessionDir dir;
  const fuzz::Fuzzer fuzzer = fuzz_modbus(Sink(), 1000);
  ASSERT_FALSE(fuzz::save_session(fuzzer, dir.str()).has_value());
  EXPECT_FALSE(fs::exists(fs::path(dir.str()) / "telemetry.json"));
  EXPECT_FALSE(fs::exists(fs::path(dir.str()) / "journal.jsonl"));
  EXPECT_TRUE(fuzz::load_journal(dir.str()).empty());
  EXPECT_FALSE(fuzz::load_telemetry_snapshot(dir.str()).has_value());
}

}  // namespace
}  // namespace icsfuzz::telem
