// TriageStore — the campaign's durable, append-only crash-triage database.
//
// The in-memory CrashDb deduplicates by (kind, site) within one campaign;
// the triage store is its cross-campaign, on-disk counterpart. Buckets key
// on (fault kind, crash site, coverage fingerprint) — the trace hash
// separates distinct paths into the same guarded access, which (kind,
// site) alone would merge — and every ingest can re-verify the reproducer
// against a live target and tmin-shrink it before it is persisted, so the
// store only ever accumulates actionable, replayable crashes.
//
// On-disk layout under the store root:
//   index.jsonl          append-only journal of bucket records; the live
//                        index is the journal replayed with last-record-
//                        per-bucket wins (first-seen order preserved), so
//                        updates never rewrite history and a torn trailing
//                        line from a killed writer is simply dropped
//   repro/<bucket>.bin   current reproducer packet for the bucket
//
// Bucket id: "<kind-slug>-<site:%08x>-<trace:%016llx>".
//
// It is also the one on-disk crash format: fuzz::save_session writes a
// campaign's crashes as a store under <session>/crashes/, and every crash
// reader (icsfuzz-distill --replay-crashes, icsfuzz-triage ingest) opens
// one. The icsfuzz-triage CLI (tools/icsfuzz_triage.cpp) fronts this
// store: fold a session's store into another, list/show buckets, re-replay
// and minimize reproducers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzzer/crash_db.hpp"
#include "fuzzer/executor.hpp"

namespace icsfuzz::supervise {

/// One triage bucket — a unique (kind, site, trace) crash with its current
/// reproducer metadata.
struct TriageRecord {
  std::string bucket;
  san::FaultKind kind = san::FaultKind::Segv;
  std::uint32_t site = 0;
  std::uint64_t trace_hash = 0;
  std::string detail;
  /// Summed over every ingest that landed in this bucket.
  std::uint64_t hits = 0;
  /// Earliest discovery across ingests.
  std::uint64_t first_execution = 0;
  /// Ingests merged into this bucket.
  std::uint64_t ingests = 0;
  /// The last replay of the reproducer faulted on the same (kind, site).
  bool verified = false;
  /// The reproducer has been tmin-shrunk.
  bool minimized = false;
  std::size_t reproducer_bytes = 0;
  /// Reproducer size when the bucket was first ingested.
  std::size_t original_bytes = 0;
};

[[nodiscard]] std::string triage_bucket_id(san::FaultKind kind,
                                           std::uint32_t site,
                                           std::uint64_t trace_hash);

/// A record as one JSON object, the shape index.jsonl journals (one per
/// line) and icsfuzz-triage prints.
[[nodiscard]] std::string render_record(const TriageRecord& record);

class TriageStore {
 public:
  explicit TriageStore(std::string directory);

  /// Replays index.jsonl into the live index (a missing store is simply
  /// empty). Returns false only when the directory exists but cannot be
  /// read; error() then explains.
  bool open();

  struct IngestOutcome {
    std::string bucket;
    bool is_new = false;
    /// Replay ran and reproduced the fault on the same (kind, site).
    bool reproduced = false;
    /// Replay ran and did NOT reproduce — recorded, but flagged.
    bool verify_failed = false;
    bool minimized = false;
    /// The record reached the disk (reproducer side file and journal
    /// line); when false the live index is unchanged and error() explains.
    bool persisted = false;
  };

  /// Ingests one crash record: buckets it, re-verifies the reproducer when
  /// `target` is non-null (and tmin-shrinks it when `minimize`, trace-hash
  /// invariant so the minimized packet provably executes the same path),
  /// writes the reproducer side file (tmp + rename, so a killed writer
  /// never leaves a torn one) and appends the bucket's updated record to
  /// the journal. Repeated ingests into one bucket accumulate
  /// hits and keep the earliest first_execution and the smallest verified
  /// reproducer.
  IngestOutcome ingest(const fuzz::CrashRecord& record, ProtocolTarget* target,
                       bool minimize = false,
                       const fuzz::ExecutorConfig& executor = {});

  /// Re-runs verification (and optional minimization) of an existing
  /// bucket's stored reproducer, journaling the updated record. Nullopt
  /// when the bucket or its reproducer is missing.
  std::optional<IngestOutcome> reverify(std::string_view bucket,
                                        ProtocolTarget& target,
                                        bool minimize = false,
                                        const fuzz::ExecutorConfig& executor =
                                            {});

  /// Buckets in first-seen order.
  [[nodiscard]] const std::vector<TriageRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const TriageRecord* find(std::string_view bucket) const;
  /// Reads a bucket's reproducer side file (nullopt when absent).
  [[nodiscard]] std::optional<Bytes> load_reproducer(
      std::string_view bucket) const;

  [[nodiscard]] const std::string& directory() const { return directory_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  TriageRecord& upsert(const TriageRecord& record);
  /// Writes `reproducer` (when given) to the bucket's side file and
  /// appends `record` to index.jsonl, then upserts it into the live index.
  /// False (error() explains, index unchanged) when a write failed.
  bool persist(const TriageRecord& record, const Bytes* reproducer);

  std::string directory_;
  std::vector<TriageRecord> records_;
  std::string error_;
};

}  // namespace icsfuzz::supervise
