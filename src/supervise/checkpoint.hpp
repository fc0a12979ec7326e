// Campaign checkpoint serialization — the on-disk log behind crash-safe
// resume.
//
// A CampaignCheckpoint is the complete trajectory-relevant state of a
// (possibly parallel) campaign at a quiescent point: how many iterations
// every worker has completed plus each worker's full WorkerState (fuzzer
// checkpoint, exchange cursor, sync bookkeeping — see parallel/worker.hpp).
// load_checkpoint() reinstates one on the next start; the resumed campaign
// reproduces the uninterrupted run's trajectory bit-for-bit (gated by
// tests/test_checkpoint_resume.cpp).
//
// Format v5: one file, the line "icsfuzz-checkpoint v5\n", then binary
// records, each framed as [u64 payload length][u32 CRC-32 of the payload]
// [payload] (integers little-endian):
//
//   * a base — the whole checkpoint, each dedup generation ("dcur",
//     "dprev") as raw u64 hashes in FlatU64Set::snapshot table order;
//   * then any number of segments — every worker's small state (rng,
//     cursors, corpus, crashes, stats, retained seeds, queues, coverage,
//     paths, session states) plus only the dedup hashes inserted since the
//     previous record, in insert order.
//
// The dedup tables are nearly all of an image, so a segment costs what
// changed since the last save, not what the campaign has accumulated. The
// loader restores the base's current generation and replays each segment's
// hashes through FlatU64Set::insert, so the table grows through the same
// doublings as the live one and snapshots slot for slot; each segment's
// small state replaces the one before it. A torn, mis-checksummed or
// malformed record ends the log: it and everything after it are dropped,
// and the log loads as its intact prefix. A log without an intact base is
// rejected.
//
// CheckpointWriter, owned by CampaignSupervisor::run(), decides between the
// two: the first save of a run, a failed save, a rotated or overflowed
// dedup journal, and a log whose superseded small-state bytes would exceed
// its base's size write a fresh base (tmp file, fsync, rename, directory
// fsync); every other save appends a segment and fdatasyncs it. The
// identity fields tie a checkpoint to the campaign shape that wrote it
// (base seed, iteration budget, sync interval, worker count); a mismatch
// on load is rejected rather than silently resuming a different campaign.
// Logs of older versions are rejected. docs/RESILIENCE.md has the full
// layout.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "parallel/worker.hpp"

namespace icsfuzz::supervise {

struct CampaignCheckpoint {
  /// Iterations every worker has completed (workers advance in lockstep
  /// chunks, so one number covers all of them).
  std::uint64_t completed_iterations = 0;
  // Campaign identity — must match the resuming configuration.
  std::uint64_t base_seed = 0;
  std::uint64_t iterations_per_worker = 0;
  std::uint64_t sync_interval = 0;
  std::vector<par::WorkerState> workers;
};

/// Renders the checkpoint as a log holding one base record — its stable
/// binary form.
[[nodiscard]] std::string serialize_checkpoint(const CampaignCheckpoint& cp);

/// Parses a log: its base plus every intact segment after it (nullopt
/// when the header or the base is missing, torn or malformed — a damaged
/// base never yields a partial checkpoint).
[[nodiscard]] std::optional<CampaignCheckpoint> parse_checkpoint(
    std::string_view text);

/// Durably writes the checkpoint to `path` as a fresh one-base log (tmp +
/// fsync + rename + directory fsync; the previous log survives a crash
/// mid-write). Returns an error message on I/O failure, nullopt on success.
std::optional<std::string> save_checkpoint(const CampaignCheckpoint& cp,
                                           const std::string& path);

/// Loads and parses `path` (nullopt when absent or malformed). The file is
/// read once, into a string sized from the opened file.
[[nodiscard]] std::optional<CampaignCheckpoint> load_checkpoint(
    const std::string& path);

/// The stateful writer of one run's checkpoint log.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string path) : path_(std::move(path)) {}

  /// True when the next save may append a segment: this writer wrote the
  /// log's base, every save since succeeded, and the small state a segment
  /// would supersede keeps the log's dead bytes within the base's size.
  [[nodiscard]] bool accepts_segment() const;

  /// Writes `cp`: a segment when its workers carry delta captures
  /// (FuzzerCheckpoint::dedup_delta, all or none of them; accepts_segment()
  /// must hold), a fresh base otherwise. A failed save makes the next one a base. Returns an
  /// error message on failure, nullopt on success.
  std::optional<std::string> save(const CampaignCheckpoint& cp);

 private:
  std::string path_;
  bool has_base_ = false;
  std::size_t base_bytes_ = 0;
  /// Small-state bytes of the records a later record replaced.
  std::size_t superseded_bytes_ = 0;
  /// Small-state bytes of the newest record.
  std::size_t newest_small_bytes_ = 0;
};

}  // namespace icsfuzz::supervise
