#include "fuzzer/persistence.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "supervise/triage_store.hpp"

namespace icsfuzz::fuzz {
namespace {

namespace fs = std::filesystem;

bool write_file(const fs::path& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

bool write_text(const fs::path& path, const std::string& text) {
  return write_file(path,
                    ByteSpan(reinterpret_cast<const std::uint8_t*>(text.data()),
                             text.size()));
}

std::optional<Bytes> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return data;
}

const Bytes& seed_bytes(const Bytes& seed) { return seed; }
const Bytes& seed_bytes(const RetainedSeed& seed) { return seed.bytes; }

/// Writes `seeds` as seed-<index>.bin under `dir`, after deleting every
/// .bin file already there: a re-save must replace the seed set, or
/// read_seed_dir would glob the stale files back in.
template <typename Seed>
std::optional<std::string> write_seed_dir(const fs::path& dir,
                                          const std::vector<Seed>& seeds) {
  std::error_code error;
  fs::create_directories(dir, error);
  if (error) return "cannot create " + dir.string() + ": " + error.message();
  for (const auto& entry : fs::directory_iterator(dir, error)) {
    if (entry.path().extension() == ".bin") {
      std::error_code ignored;
      fs::remove(entry.path(), ignored);
    }
  }
  std::size_t index = 0;
  for (const Seed& seed : seeds) {
    char name[32];
    std::snprintf(name, sizeof name, "seed-%05zu.bin", index++);
    if (!write_file(dir / name, seed_bytes(seed))) {
      return std::string("cannot write ") + name;
    }
  }
  return std::nullopt;
}

/// Reads every .bin file under `dir` in name order (empty when missing).
std::vector<Bytes> read_seed_dir(const fs::path& dir) {
  std::vector<Bytes> seeds;
  std::error_code error;
  if (!fs::is_directory(dir, error)) return seeds;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir, error)) {
    if (entry.path().extension() == ".bin") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    if (auto data = read_file(path)) seeds.push_back(std::move(*data));
  }
  return seeds;
}

std::string site_hex(std::uint32_t site) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%08x", site);
  return buffer;
}

}  // namespace

std::string render_summary(const Fuzzer& fuzzer) {
  std::string out;
  out += "strategy        : " + to_string(fuzzer.config().strategy) + "\n";
  out += "executions      : " + std::to_string(fuzzer.executor().executions()) + "\n";
  out += "paths covered   : " + std::to_string(fuzzer.path_count()) + "\n";
  out += "edges covered   : " + std::to_string(fuzzer.executor().edge_count()) + "\n";
  out += "valuable seeds  : " + std::to_string(fuzzer.retained_seeds().size()) + "\n";
  out += "puzzle corpus   : " + std::to_string(fuzzer.corpus().size()) +
         " puzzles / " + std::to_string(fuzzer.corpus().rule_count()) +
         " rules\n";
  out += "unique crashes  : " + std::to_string(fuzzer.crashes().unique_count()) + "\n";
  for (const CrashRecord* crash : fuzzer.crashes().records()) {
    out += "  [" + san::to_string(crash->kind) + "] site " +
           site_hex(crash->site) + " first at execution " +
           std::to_string(crash->first_execution) + " (" +
           std::to_string(crash->hits) + " hits)\n    " + crash->detail + "\n";
  }
  return out;
}

std::optional<std::string> save_session(const Fuzzer& fuzzer,
                                        const std::string& directory) {
  std::error_code error;
  const fs::path root(directory);
  // A re-save replaces the crash store: ingesting into the previous one
  // would add this campaign's hits to the ones it already holds.
  fs::remove_all(root / "crashes", error);
  if (!error) fs::create_directories(root / "crashes", error);
  if (error) return "cannot create session directory: " + error.message();

  supervise::TriageStore crashes((root / "crashes").string());
  for (const CrashRecord* crash : fuzzer.crashes().records()) {
    if (!crashes.ingest(*crash, /*target=*/nullptr).persisted) {
      return "cannot write crash store: " + crashes.error();
    }
  }

  if (std::optional<std::string> failed =
          write_seed_dir(root / "seeds", fuzzer.retained_seeds())) {
    return failed;
  }

  if (!write_text(root / "stats.csv", fuzzer.stats().to_csv())) {
    return "cannot write stats.csv";
  }
  if (!write_text(root / "summary.txt", render_summary(fuzzer))) {
    return "cannot write summary.txt";
  }

  // Telemetry artefacts: the hub-wide final snapshot and the event
  // journal. The hub may be shared (the process-global default, or one hub
  // across a parallel campaign's workers), in which case this records the
  // campaign-wide view rather than this fuzzer's slice alone.
  if (const telem::Telemetry* hub = fuzzer.config().telemetry.hub()) {
    if (!write_text(root / "telemetry.json",
                    telem::to_json(hub->snapshot()))) {
      return "cannot write telemetry.json";
    }
    if (!write_text(root / "journal.jsonl", hub->journal().to_jsonl())) {
      return "cannot write journal.jsonl";
    }
  }
  return std::nullopt;
}

std::vector<telem::Event> load_journal(const std::string& directory) {
  const auto data = read_file(fs::path(directory) / "journal.jsonl");
  if (!data) return {};
  return telem::EventJournal::from_jsonl(std::string_view(
      reinterpret_cast<const char*>(data->data()), data->size()));
}

std::optional<telem::Snapshot> load_telemetry_snapshot(
    const std::string& directory) {
  const auto data = read_file(fs::path(directory) / "telemetry.json");
  if (!data) return std::nullopt;
  return telem::snapshot_from_json(std::string_view(
      reinterpret_cast<const char*>(data->data()), data->size()));
}

std::optional<std::string> save_distilled_corpus(
    const std::string& directory, const std::vector<Bytes>& seeds,
    const distill::ReplayReport& report) {
  const fs::path root(directory);
  // The writer replaces the whole seed set: stale seed files would be
  // globbed back in by load_distilled_corpus and falsify the fresh manifest.
  if (std::optional<std::string> failed = write_seed_dir(root, seeds)) {
    return failed;
  }

  char manifest[512];
  std::snprintf(manifest, sizeof manifest,
                "icsfuzz-distilled-corpus v2\n"
                "seeds %zu\n"
                "executions %llu\n"
                "edges %zu\n"
                "paths %zu\n"
                "crashes %zu\n"
                "map_fingerprint %016llx\n"
                "path_fingerprint %016llx\n",
                seeds.size(),
                static_cast<unsigned long long>(report.executions),
                report.edges, report.paths, report.crashes,
                static_cast<unsigned long long>(report.map_fingerprint),
                static_cast<unsigned long long>(report.path_fingerprint));
  if (!write_text(root / "MANIFEST.txt", manifest)) {
    return "cannot write MANIFEST.txt";
  }
  return std::nullopt;
}

LoadedCorpus load_distilled_corpus(const std::string& directory) {
  LoadedCorpus corpus;
  const fs::path root(directory);
  corpus.seeds = read_seed_dir(root);

  std::ifstream manifest(root / "MANIFEST.txt");
  if (manifest) {
    std::string header;
    std::getline(manifest, header);
    // Exact: a v1 manifest's fingerprints came from the old hash basis, so
    // it counts as no manifest rather than as a coverage mismatch.
    if (header == "icsfuzz-distilled-corpus v2") {
      corpus.has_manifest = true;
      std::string key;
      while (manifest >> key) {
        if (key == "seeds") manifest >> corpus.expected.seeds;
        else if (key == "executions") manifest >> corpus.expected.executions;
        else if (key == "edges") manifest >> corpus.expected.edges;
        else if (key == "paths") manifest >> corpus.expected.paths;
        else if (key == "crashes") manifest >> corpus.expected.crashes;
        else if (key == "map_fingerprint") {
          manifest >> std::hex >> corpus.expected.map_fingerprint >> std::dec;
        } else if (key == "path_fingerprint") {
          manifest >> std::hex >> corpus.expected.path_fingerprint >> std::dec;
        } else {
          std::string skipped;
          manifest >> skipped;
        }
      }
    }
  }
  return corpus;
}

std::vector<Bytes> load_seeds(const std::string& directory) {
  return read_seed_dir(fs::path(directory) / "seeds");
}

}  // namespace icsfuzz::fuzz
