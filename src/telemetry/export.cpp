#include "telemetry/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace icsfuzz::telem {
namespace {

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%" PRIu64, value);
  out += buffer;
}

void append_double(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  out += buffer;
}

void append_rate_window(std::string& out, const RateWindows& rates,
                        std::uint64_t window_ns) {
  const RateWindows::Rate execs =
      rates.counter_rate(Counter::kExecutions, window_ns);
  const RateWindows::Rate edges =
      rates.gauge_rate(Gauge::kEdgesCovered, window_ns);
  const RateWindows::Rate paths =
      rates.gauge_rate(Gauge::kPathsCovered, window_ns);
  const RateWindows::Rate crashes =
      rates.counter_rate(Counter::kCrashFaults, window_ns);
  out += "{\"valid\":";
  out += execs.valid ? "true" : "false";
  out += ",\"window_seconds\":";
  append_double(out, execs.window_seconds);
  out += ",\"execs_per_sec\":";
  append_double(out, execs.per_sec);
  out += ",\"new_edges_per_sec\":";
  append_double(out, edges.per_sec);
  out += ",\"new_paths_per_sec\":";
  append_double(out, paths.per_sec);
  out += ",\"crash_faults_per_sec\":";
  append_double(out, crashes.per_sec);
  out += "}";
}

}  // namespace

std::string to_json(const Snapshot& snapshot, const RateWindows* rates) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"";
  out += kSnapshotSchema;
  out += "\",\n  \"ts_ns\": ";
  append_u64(out, snapshot.ts_ns);
  out += ",\n  \"counters\": {";
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    if (c != 0) out += ", ";
    out += "\"";
    out += to_string(static_cast<Counter>(c));
    out += "\": ";
    append_u64(out, snapshot.counters[c]);
  }
  out += "},\n  \"gauges\": {";
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    if (g != 0) out += ", ";
    out += "\"";
    out += to_string(static_cast<Gauge>(g));
    out += "\": ";
    append_u64(out, snapshot.gauges[g]);
  }
  out += "},\n  \"histograms\": {";
  for (std::size_t h = 0; h < kHistogramCount; ++h) {
    const HistogramSnapshot& hist = snapshot.histograms[h];
    if (h != 0) out += ",";
    out += "\n    \"";
    out += to_string(static_cast<Histogram>(h));
    out += "\": {\"count\": ";
    append_u64(out, hist.count);
    out += ", \"sum\": ";
    append_u64(out, hist.sum);
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (b != 0) out += ",";
      append_u64(out, hist.buckets[b]);
    }
    out += "]}";
  }
  out += "\n  }";
  if (rates != nullptr) {
    out += ",\n  \"rates\": {\"1s\": ";
    append_rate_window(out, *rates, kSecondNs);
    out += ", \"10s\": ";
    append_rate_window(out, *rates, 10 * kSecondNs);
    out += ", \"60s\": ";
    append_rate_window(out, *rates, 60 * kSecondNs);
    out += "}";
  }
  out += "\n}\n";
  return out;
}

std::optional<Snapshot> snapshot_from_json(std::string_view text) {
  const std::optional<JsonValue> doc = json_parse(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kSnapshotSchema) {
    return std::nullopt;
  }
  Snapshot out;
  if (const JsonValue* ts = doc->find("ts_ns"); ts != nullptr && ts->is_u64) {
    out.ts_ns = ts->u64;
  }
  if (const JsonValue* counters = doc->find("counters");
      counters != nullptr && counters->is_object()) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      const JsonValue* cell =
          counters->find(to_string(static_cast<Counter>(c)));
      if (cell != nullptr && cell->is_u64) out.counters[c] = cell->u64;
    }
  }
  if (const JsonValue* gauges = doc->find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
      const JsonValue* cell = gauges->find(to_string(static_cast<Gauge>(g)));
      if (cell != nullptr && cell->is_u64) out.gauges[g] = cell->u64;
    }
  }
  if (const JsonValue* histograms = doc->find("histograms");
      histograms != nullptr && histograms->is_object()) {
    for (std::size_t h = 0; h < kHistogramCount; ++h) {
      const JsonValue* hist =
          histograms->find(to_string(static_cast<Histogram>(h)));
      if (hist == nullptr || !hist->is_object()) continue;
      HistogramSnapshot& into = out.histograms[h];
      if (const JsonValue* count = hist->find("count");
          count != nullptr && count->is_u64) {
        into.count = count->u64;
      }
      if (const JsonValue* sum = hist->find("sum");
          sum != nullptr && sum->is_u64) {
        into.sum = sum->u64;
      }
      if (const JsonValue* buckets = hist->find("buckets");
          buckets != nullptr && buckets->is_array()) {
        for (std::size_t b = 0;
             b < buckets->items.size() && b < kHistBuckets; ++b) {
          if (buckets->items[b].is_u64) into.buckets[b] = buckets->items[b].u64;
        }
      }
    }
  }
  return out;
}

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  out.reserve(8192);
  char line[160];
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    const std::string_view name = to_string(static_cast<Counter>(c));
    std::snprintf(line, sizeof line,
                  "# TYPE icsfuzz_%.*s_total counter\n"
                  "icsfuzz_%.*s_total %" PRIu64 "\n",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<int>(name.size()), name.data(),
                  snapshot.counters[c]);
    out += line;
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    const std::string_view name = to_string(static_cast<Gauge>(g));
    std::snprintf(line, sizeof line,
                  "# TYPE icsfuzz_%.*s gauge\n"
                  "icsfuzz_%.*s %" PRIu64 "\n",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<int>(name.size()), name.data(),
                  snapshot.gauges[g]);
    out += line;
  }
  for (std::size_t h = 0; h < kHistogramCount; ++h) {
    const std::string_view name = to_string(static_cast<Histogram>(h));
    const HistogramSnapshot& hist = snapshot.histograms[h];
    std::snprintf(line, sizeof line, "# TYPE icsfuzz_%.*s histogram\n",
                  static_cast<int>(name.size()), name.data());
    out += line;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      cumulative += hist.buckets[b];
      // Skip interior empty tail buckets; always emit +Inf below.
      if (hist.buckets[b] == 0 && b != 0) continue;
      std::snprintf(line, sizeof line,
                    "icsfuzz_%.*s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                    static_cast<int>(name.size()), name.data(),
                    bucket_ceil(b), cumulative);
      out += line;
    }
    std::snprintf(line, sizeof line,
                  "icsfuzz_%.*s_bucket{le=\"+Inf\"} %" PRIu64 "\n"
                  "icsfuzz_%.*s_sum %" PRIu64 "\n"
                  "icsfuzz_%.*s_count %" PRIu64 "\n",
                  static_cast<int>(name.size()), name.data(), hist.count,
                  static_cast<int>(name.size()), name.data(), hist.sum,
                  static_cast<int>(name.size()), name.data(), hist.count);
    out += line;
  }
  return out;
}

std::optional<std::string> write_text_atomic(const std::string& path,
                                             const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::error_code error;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return "cannot open " + tmp;
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    // A short text sits in the stream's buffer until close() flushes it,
    // so only the close reports its failed write.
    out.close();
    if (!out) {
      std::filesystem::remove(tmp, error);
      return "cannot write " + tmp;
    }
  }
  std::filesystem::rename(tmp, path, error);
  if (error) return "cannot rename " + tmp + ": " + error.message();
  return std::nullopt;
}

std::optional<std::string> export_live(const Telemetry& hub,
                                       RateWindows& rates,
                                       const std::string& directory) {
  std::error_code error;
  std::filesystem::create_directories(directory, error);
  if (error) {
    return "cannot create " + directory + ": " + error.message();
  }
  rates.push(hub.snapshot());
  const std::filesystem::path root(directory);
  if (auto err = write_text_atomic((root / kMetricsFile).string(),
                                   to_json(*rates.newest(), &rates))) {
    return err;
  }
  if (auto err = write_text_atomic((root / kPrometheusFile).string(),
                                   to_prometheus(*rates.newest()))) {
    return err;
  }
  return write_text_atomic((root / kJournalFile).string(),
                           hub.journal().to_jsonl());
}

}  // namespace icsfuzz::telem
