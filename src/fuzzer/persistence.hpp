// Persistence — writes a fuzzing session's artefacts to a directory the
// way released fuzzers do: the unique crashes with their reproducers, one
// file per retained valuable seed, and machine-readable CSV summaries. A
// saved session can be reloaded to replay crashes (triage) or to
// warm-start a future campaign's corpus via the cracker.
//
// Layout under the session root:
//   crashes/                      the campaign's crashes as a
//                                 supervise::TriageStore: index.jsonl (one
//                                 record per CrashDb record, discovery
//                                 order) + repro/<bucket>.bin reproducers;
//                                 read it back with TriageStore::open,
//                                 records() and load_reproducer
//   seeds/seed-<index>.bin        retained valuable seeds
//   stats.csv                     the campaign's checkpoint series
//   summary.txt                   human-readable wrap-up
//   telemetry.json                final metrics snapshot (telemetry on)
//   journal.jsonl                 telemetry event journal (telemetry on)
//
// Distilled corpora (src/distill/) persist as their own directory of
// seed-<index>.bin files plus a MANIFEST.txt recording the ReplayReport
// the corpus must reproduce when reloaded — the load side hands that
// expectation back so callers can verify replay coverage is bit-identical.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "distill/replay.hpp"
#include "fuzzer/fuzzer.hpp"
#include "telemetry/export.hpp"

namespace icsfuzz::fuzz {

/// Writes all artefacts of `fuzzer` under `directory` (created if absent).
/// A re-save replaces the previous crash store, so every bucket's hits are
/// the campaign's own. Returns an error message on I/O failure, nullopt on
/// success.
std::optional<std::string> save_session(const Fuzzer& fuzzer,
                                        const std::string& directory);

/// Loads every retained seed saved under `directory`.
std::vector<Bytes> load_seeds(const std::string& directory);

/// Loads the telemetry event journal saved under `directory` (empty when
/// the session was saved with telemetry disabled).
std::vector<telem::Event> load_journal(const std::string& directory);

/// Loads the final metrics snapshot saved under `directory` (nullopt when
/// absent or malformed).
std::optional<telem::Snapshot> load_telemetry_snapshot(
    const std::string& directory);

/// Renders a human-readable campaign summary (used by summary.txt and the
/// examples).
std::string render_summary(const Fuzzer& fuzzer);

/// Writes a distilled corpus under `directory`: one seed-<index>.bin per
/// seed plus MANIFEST.txt with `report`'s coverage expectation. Returns an
/// error message on I/O failure, nullopt on success.
std::optional<std::string> save_distilled_corpus(
    const std::string& directory, const std::vector<Bytes>& seeds,
    const distill::ReplayReport& report);

/// A reloaded distilled corpus.
struct LoadedCorpus {
  std::vector<Bytes> seeds;
  /// The coverage the corpus claimed at save time (MANIFEST.txt); compare
  /// with a fresh replay via ReplayReport::same_coverage.
  distill::ReplayReport expected;
  bool has_manifest = false;
};

/// Loads a distilled corpus directory (empty seeds when missing).
LoadedCorpus load_distilled_corpus(const std::string& directory);

}  // namespace icsfuzz::fuzz
