// Exporters — the three ways a campaign's telemetry leaves the process:
//
//   * to_json / snapshot_from_json — the machine-readable snapshot (the
//     format `schemas/metrics_snapshot.schema.json` pins and
//     `scripts/check_metrics_schema.py` validates in CI); counters and
//     gauges are exact integers, 64-bit hashes travel as hex strings.
//   * to_prometheus — Prometheus text exposition (counters as `_total`,
//     log2 histograms as cumulative `_bucket{le=...}` series).
//   * export_live — the periodic file exporter behind a live campaign
//     directory: pushes a fresh snapshot into the caller's RateWindows,
//     then atomically (tmp + rename) rewrites metrics.json, metrics.prom
//     and journal.jsonl so `icsfuzz-stats` can tail the directory without
//     ever observing a torn file.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "telemetry/telemetry.hpp"
#include "telemetry/windows.hpp"

namespace icsfuzz::telem {

inline constexpr std::string_view kSnapshotSchema =
    "icsfuzz-telemetry-snapshot-v1";

/// File names export_live maintains under the campaign directory.
inline constexpr std::string_view kMetricsFile = "metrics.json";
inline constexpr std::string_view kPrometheusFile = "metrics.prom";
inline constexpr std::string_view kJournalFile = "journal.jsonl";

/// Serializes a snapshot (optionally with 1s/10s/60s rates from `rates`).
std::string to_json(const Snapshot& snapshot,
                    const RateWindows* rates = nullptr);

/// Parses a to_json document (nullopt on malformed or wrong-schema input).
std::optional<Snapshot> snapshot_from_json(std::string_view text);

/// Prometheus text exposition format of the same snapshot.
std::string to_prometheus(const Snapshot& snapshot);

/// Writes `text` to `path` atomically (tmp file + rename). Returns an
/// error message on failure — a write the final flush loses included, in
/// which case `path` keeps its previous contents — nullopt on success.
std::optional<std::string> write_text_atomic(const std::string& path,
                                             const std::string& text);

/// One live-export step: snapshot `hub`, push into `rates`, rewrite
/// kMetricsFile/kPrometheusFile/kJournalFile under `directory` (created if
/// absent). Returns an error message on failure, nullopt on success.
std::optional<std::string> export_live(const Telemetry& hub,
                                       RateWindows& rates,
                                       const std::string& directory);

}  // namespace icsfuzz::telem
