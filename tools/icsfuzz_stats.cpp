// icsfuzz-stats — renders a campaign directory's telemetry.
//
//   # one-shot view of a saved session or a live campaign directory
//   icsfuzz-stats DIR
//
//   # tail a live campaign (ParallelCampaignConfig::telemetry_dir of a
//   # supervise::CampaignSupervisor run)
//   icsfuzz-stats DIR --follow [--interval-ms 1000]
//
// The directory may be either a live export directory (metrics.json,
// written atomically by the supervisor's watchdog wait) or a saved session
// (telemetry.json from save_session) — whichever snapshot file exists is
// used, plus journal.jsonl for the recent-event tail. In --follow mode the
// tool polls the snapshot file and derives its own execs/sec,
// new-edges/sec and crash rates from successive snapshots via RateWindows,
// so it works even against exporters that do not embed rates.
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fuzzer/persistence.hpp"
#include "telemetry/export.hpp"
#include "telemetry/windows.hpp"
#include "util/strings.hpp"

namespace {

using namespace icsfuzz;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s DIR [options]\n"
               "  DIR                a live telemetry directory (metrics.json)"
               " or a saved\n"
               "                     session (telemetry.json)\n"
               "  --follow           keep polling and redraw until killed\n"
               "  --interval-ms N    poll period in --follow mode (default"
               " 1000)\n"
               "  --events N         journal events to show (default 10)\n",
               argv0);
  return 2;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Loads the newest snapshot under `dir`: the live exporter's metrics.json
/// first, the saved session's telemetry.json as the fallback.
std::optional<telem::Snapshot> load_snapshot(const std::string& dir) {
  for (const char* name : {"metrics.json", "telemetry.json"}) {
    if (const auto text = read_file(dir + "/" + name)) {
      if (auto snap = telem::snapshot_from_json(*text)) return snap;
    }
  }
  return std::nullopt;
}

void print_rate(const char* label, const telem::RateWindows::Rate& rate) {
  if (rate.valid) {
    std::printf("  %-18s %12.1f /s   (over %.1fs)\n", label, rate.per_sec,
                rate.window_seconds);
  } else {
    std::printf("  %-18s %12s\n", label, "n/a");
  }
}

void render(const telem::Snapshot& snap, const telem::RateWindows& rates,
            const std::vector<telem::Event>& events, std::size_t event_tail) {
  using telem::Counter;
  using telem::Gauge;
  using telem::Histogram;

  std::printf("icsfuzz campaign @ t=%.1fs\n",
              static_cast<double>(snap.ts_ns) / 1e9);
  std::printf("  %-18s %12llu\n", "executions",
              static_cast<unsigned long long>(
                  snap.counter(Counter::kExecutions)));
  print_rate("execs/sec", rates.counter_rate(Counter::kExecutions,
                                             10 * telem::kSecondNs));
  print_rate("new edges/sec", rates.gauge_rate(Gauge::kEdgesCovered,
                                               10 * telem::kSecondNs));
  std::printf("  %-18s %12llu\n", "paths",
              static_cast<unsigned long long>(
                  snap.gauge(Gauge::kPathsCovered)));
  std::printf("  %-18s %12llu\n", "edges",
              static_cast<unsigned long long>(
                  snap.gauge(Gauge::kEdgesCovered)));
  std::printf("  %-18s %12llu\n", "unique crashes",
              static_cast<unsigned long long>(
                  snap.counter(Counter::kUniqueCrashes)));
  std::printf("  %-18s %12llu  (hangs %llu)\n", "fault execs",
              static_cast<unsigned long long>(
                  snap.counter(Counter::kCrashFaults)),
              static_cast<unsigned long long>(
                  snap.counter(Counter::kHangFaults)));
  std::printf("  %-18s %12llu\n", "corpus puzzles",
              static_cast<unsigned long long>(
                  snap.gauge(Gauge::kCorpusPuzzles)));
  std::printf("  %-18s %12llu\n", "retained seeds",
              static_cast<unsigned long long>(
                  snap.gauge(Gauge::kRetainedSeeds)));
  std::printf("  %-18s %12llu\n", "workers running",
              static_cast<unsigned long long>(
                  snap.gauge(Gauge::kWorkersRunning)));
  std::printf("  %-18s %12llu  (imported %llu)\n", "crack runs",
              static_cast<unsigned long long>(
                  snap.counter(Counter::kCrackRuns)),
              static_cast<unsigned long long>(
                  snap.counter(Counter::kImportedSeeds)));
  const std::uint64_t restarts = snap.counter(Counter::kOopRestarts);
  if (restarts != 0 || snap.counter(Counter::kOopHangs) != 0) {
    std::printf("  %-18s %12llu  (retries %llu, hangs %llu, lost %llu)\n",
                "oop restarts", static_cast<unsigned long long>(restarts),
                static_cast<unsigned long long>(
                    snap.counter(Counter::kOopRetries)),
                static_cast<unsigned long long>(
                    snap.counter(Counter::kOopHangs)),
                static_cast<unsigned long long>(
                    snap.counter(Counter::kOopServerLost)));
  }
  const std::uint64_t discards =
      snap.counter(Counter::kOopSpeculativeDiscards);
  if (discards != 0) {
    std::printf("  %-18s %12llu  (in-flight executions drained unseen)\n",
                "spec. discards", static_cast<unsigned long long>(discards));
  }
  const std::uint64_t full_scans = snap.counter(Counter::kOopAdoptFullScans);
  if (full_scans != 0) {
    std::printf("  %-18s %12llu  (traces adopted by the full-map scan)\n",
                "full-map adopts", static_cast<unsigned long long>(full_scans));
  }
  const telem::HistogramSnapshot& latency =
      snap.histogram(Histogram::kExecLatencyNs);
  if (latency.count != 0) {
    std::printf("  %-18s %12.0f ns  (sampled, n=%llu)\n", "mean exec latency",
                latency.mean(),
                static_cast<unsigned long long>(latency.count));
  }
  const telem::HistogramSnapshot& bytes =
      snap.histogram(Histogram::kPacketBytes);
  if (bytes.count != 0) {
    std::printf("  %-18s %12.1f B\n", "mean packet", bytes.mean());
  }

  if (!events.empty() && event_tail != 0) {
    std::printf("recent events:\n");
    const std::size_t start =
        events.size() > event_tail ? events.size() - event_tail : 0;
    for (std::size_t i = start; i < events.size(); ++i) {
      const telem::Event& event = events[i];
      std::printf("  %10.3fs  w%-3u %-20s %s\n",
                  static_cast<double>(event.ts_ns) / 1e9, event.worker,
                  std::string(telem::to_string(event.type)).c_str(),
                  event.detail);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  bool follow = false;
  int interval_ms = 1000;
  std::size_t event_tail = 10;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--follow") {
      follow = true;
    } else if (arg == "--interval-ms") {
      const char* v = next();
      std::string error;
      const auto parsed =
          v ? parse_int(v, "--interval-ms", &error) : std::nullopt;
      if (!parsed || *parsed <= 0 || *parsed > INT_MAX) {
        std::fprintf(stderr, "%s\n",
                     error.empty() ? "--interval-ms: expected a positive "
                                     "millisecond count"
                                   : error.c_str());
        return usage(argv[0]);
      }
      interval_ms = static_cast<int>(*parsed);
    } else if (arg == "--events") {
      const char* v = next();
      std::string error;
      const auto parsed =
          v ? parse_u64(v, "--events", &error) : std::nullopt;
      if (!parsed) {
        std::fprintf(stderr, "%s\n",
                     error.empty() ? "--events: expected a count"
                                   : error.c_str());
        return usage(argv[0]);
      }
      event_tail = static_cast<std::size_t>(*parsed);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (dir.empty()) return usage(argv[0]);
  if (interval_ms <= 0) interval_ms = 1000;

  telem::RateWindows rates;
  std::uint64_t last_ts = ~std::uint64_t{0};
  bool seen_any = false;
  while (true) {
    const std::optional<telem::Snapshot> snap = load_snapshot(dir);
    if (!snap) {
      if (!follow) {
        std::fprintf(stderr,
                     "no readable metrics.json or telemetry.json under %s\n",
                     dir.c_str());
        return 1;
      }
      std::fprintf(stderr, "waiting for %s ...\n", dir.c_str());
    } else {
      // Feed the ring only on fresh snapshots so a stalled exporter does
      // not flatten the derived rates with duplicate timestamps.
      if (snap->ts_ns != last_ts) {
        rates.push(*snap);
        last_ts = snap->ts_ns;
      }
      const std::vector<telem::Event> events =
          fuzz::load_journal(dir);
      if (follow && seen_any) std::printf("\n");
      render(*snap, rates, events, event_tail);
      seen_any = true;
    }
    if (!follow) break;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}
