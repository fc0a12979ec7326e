// Campaign checkpoint serialization — the on-disk image behind crash-safe
// resume.
//
// A CampaignCheckpoint is the complete trajectory-relevant state of a
// (possibly parallel) campaign at a quiescent point: how many iterations
// every worker has completed plus each worker's full WorkerState (fuzzer
// checkpoint, exchange cursor, sync bookkeeping — see parallel/worker.hpp).
// The CampaignSupervisor writes one periodically via save_checkpoint()
// (atomic tmp+rename, so a kill -9 mid-write leaves the previous image
// intact) and load_checkpoint() reinstates it on the next start; the
// resumed campaign reproduces the uninterrupted run's trajectory
// bit-for-bit (gated by tests/test_checkpoint_resume.cpp).
//
// Format: "icsfuzz-checkpoint v3", then a whitespace-separated token
// stream — counts and small lists in decimal, byte blobs as lowercase hex
// ("-" for empty). Each executed-packet dedup generation ("dcur", "dprev")
// is one blob of little-endian u64 hashes, 16 hex digits each, in the
// table order FlatU64Set::snapshot lists them; it is nearly all of an
// image. Images of older versions are rejected. The identity line ties a
// checkpoint to the campaign shape that wrote it (base seed, iteration
// budget, sync interval, worker count); a mismatch on load is rejected
// rather than silently resuming a different campaign. docs/RESILIENCE.md
// has the full layout.
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

/// Renders the checkpoint into its stable text form.
[[nodiscard]] std::string serialize_checkpoint(const CampaignCheckpoint& cp);

/// Parses a serialized checkpoint (nullopt on any malformed input — a torn
/// or truncated file never yields a partial checkpoint).
[[nodiscard]] std::optional<CampaignCheckpoint> parse_checkpoint(
    std::string_view text);

/// Atomically writes the checkpoint to `path` (tmp + rename; the previous
/// image survives a crash mid-write). Returns an error message on I/O
/// failure, nullopt on success.
std::optional<std::string> save_checkpoint(const CampaignCheckpoint& cp,
                                           const std::string& path);

/// Loads and parses `path` (nullopt when absent or malformed). The file is
/// read once, into a string sized from the opened file.
[[nodiscard]] std::optional<CampaignCheckpoint> load_checkpoint(
    const std::string& path);

}  // namespace icsfuzz::supervise
