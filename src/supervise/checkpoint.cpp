#include "supervise/checkpoint.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>

#include "telemetry/export.hpp"
#include "util/hexdump.hpp"

namespace icsfuzz::supervise {

namespace {

constexpr const char* kMagic = "icsfuzz-checkpoint";
// v2: per-worker "sstates" list (reached session states) after "paths".
// v3: each dedup generation is one hex blob of little-endian u64s in table
// order, replacing a sorted decimal list.
constexpr const char* kVersion = "v3";

/// Hex digits per serialized u64 word.
constexpr std::size_t kWordDigits = 16;
// Dedup blobs are the words' memory hex-encoded as is, which is the
// format's little-endian byte order only on a little-endian host.
static_assert(std::endian::native == std::endian::little);

// -- Writer helpers. -------------------------------------------------------

void put_tag(std::string& out, const char* tag) {
  out += tag;
  out += ' ';
}

void put_u64(std::string& out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%llu",
                static_cast<unsigned long long>(value));
  out += buffer;
  out += ' ';
}

void put_blob(std::string& out, ByteSpan bytes) {
  if (bytes.empty()) {
    out += "- ";
    return;
  }
  const std::size_t start = out.size();
  out.resize(start + bytes.size() * 2);
  write_hex(bytes, out.data() + start);
  out += ' ';
}

/// One blob of little-endian u64 words, hex-encoded straight into `out`
/// ("-" when empty).
void put_u64_blob(std::string& out, const char* tag,
                  const std::vector<std::uint64_t>& words) {
  put_tag(out, tag);
  put_blob(out, ByteSpan(reinterpret_cast<const std::uint8_t*>(words.data()),
                         words.size() * sizeof(std::uint64_t)));
  out += '\n';
}

void put_string(std::string& out, const std::string& text) {
  put_blob(out, ByteSpan(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size()));
}

void put_u64_list(std::string& out, const char* tag,
                  const std::vector<std::uint64_t>& values) {
  put_tag(out, tag);
  put_u64(out, values.size());
  for (const std::uint64_t value : values) put_u64(out, value);
  out += '\n';
}

void put_bytes_list(std::string& out, const char* tag,
                    const std::vector<Bytes>& blobs) {
  put_tag(out, tag);
  put_u64(out, blobs.size());
  out += '\n';
  for (const Bytes& blob : blobs) {
    put_tag(out, "b");
    put_blob(out, ByteSpan(blob));
    out += '\n';
  }
}

// -- Reader. ---------------------------------------------------------------

/// The C locale's whitespace as a table: a dedup blob is one multi-MiB
/// token, and std::isspace's per-character locale lookup dominated the
/// parse.
constexpr std::array<bool, 256> kSpace = [] {
  std::array<bool, 256> space{};
  for (const char c : std::string_view(" \t\n\v\f\r")) {
    space[static_cast<unsigned char>(c)] = true;
  }
  return space;
}();

/// Whitespace-token scanner with sticky failure: any mismatch or exhausted
/// input marks the reader failed and every later read returns defaults, so
/// the parse routine checks once at the end.
struct TokenReader {
  std::string_view text;
  std::size_t pos = 0;
  bool failed = false;

  static bool is_space(char c) {
    return kSpace[static_cast<unsigned char>(c)];
  }

  std::string_view next() {
    while (pos < text.size() && is_space(text[pos])) ++pos;
    if (pos >= text.size()) {
      failed = true;
      return {};
    }
    const std::size_t start = pos;
    while (pos < text.size() && !is_space(text[pos])) ++pos;
    return text.substr(start, pos - start);
  }

  void expect(std::string_view tag) {
    if (next() != tag) failed = true;
  }

  std::uint64_t u64() {
    const std::string_view token = next();
    if (failed || token.empty()) {
      failed = true;
      return 0;
    }
    std::uint64_t value = 0;
    for (const char c : token) {
      if (c < '0' || c > '9') {
        failed = true;
        return 0;
      }
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return value;
  }

  Bytes blob() {
    const std::string_view token = next();
    if (failed || token == "-") return {};
    Bytes bytes(token.size() / 2);
    if (!read_hex(token, bytes.data())) {
      failed = true;
      return {};
    }
    return bytes;
  }

  /// A put_u64_blob list, decoded straight into the words' memory.
  std::vector<std::uint64_t> u64_blob(const char* tag) {
    expect(tag);
    const std::string_view token = next();
    if (failed || token == "-") return {};
    std::vector<std::uint64_t> words(token.size() / kWordDigits);
    if (token.size() % kWordDigits != 0 ||
        !read_hex(token, reinterpret_cast<std::uint8_t*>(words.data()))) {
      failed = true;
      return {};
    }
    return words;
  }

  std::string string() {
    const Bytes bytes = blob();
    return std::string(bytes.begin(), bytes.end());
  }

  std::vector<std::uint64_t> u64_list(const char* tag) {
    expect(tag);
    const std::uint64_t count = u64();
    std::vector<std::uint64_t> values;
    if (failed || count > (1ULL << 32)) {
      failed = true;
      return values;
    }
    values.reserve(count);
    for (std::uint64_t i = 0; i < count && !failed; ++i) {
      values.push_back(u64());
    }
    return values;
  }

  std::vector<Bytes> bytes_list(const char* tag) {
    expect(tag);
    const std::uint64_t count = u64();
    std::vector<Bytes> blobs;
    if (failed || count > (1ULL << 32)) {
      failed = true;
      return blobs;
    }
    blobs.reserve(count);
    for (std::uint64_t i = 0; i < count && !failed; ++i) {
      expect("b");
      blobs.push_back(blob());
    }
    return blobs;
  }
};

void put_rng(std::string& out, const char* tag, const Rng::State& state) {
  put_tag(out, tag);
  for (const std::uint64_t word : state.words) put_u64(out, word);
  out += '\n';
}

Rng::State read_rng(TokenReader& reader, const char* tag) {
  reader.expect(tag);
  Rng::State state{};
  for (std::uint64_t& word : state.words) word = reader.u64();
  return state;
}

void put_corpus_tier(std::string& out, const char* tag,
                     const std::vector<fuzz::CorpusSnapshot::BucketImage>&
                         tier) {
  put_tag(out, tag);
  put_u64(out, tier.size());
  out += '\n';
  for (const fuzz::CorpusSnapshot::BucketImage& bucket : tier) {
    put_tag(out, "bucket");
    put_u64(out, bucket.key);
    put_u64(out, bucket.entries.size());
    out += '\n';
    for (const Bytes& entry : bucket.entries) {
      put_tag(out, "e");
      put_blob(out, ByteSpan(entry));
      out += '\n';
    }
  }
}

std::vector<fuzz::CorpusSnapshot::BucketImage> read_corpus_tier(
    TokenReader& reader, const char* tag) {
  std::vector<fuzz::CorpusSnapshot::BucketImage> tier;
  reader.expect(tag);
  const std::uint64_t buckets = reader.u64();
  if (reader.failed || buckets > (1ULL << 32)) {
    reader.failed = true;
    return tier;
  }
  tier.reserve(buckets);
  for (std::uint64_t i = 0; i < buckets && !reader.failed; ++i) {
    reader.expect("bucket");
    fuzz::CorpusSnapshot::BucketImage bucket;
    bucket.key = reader.u64();
    const std::uint64_t entries = reader.u64();
    if (reader.failed || entries > (1ULL << 32)) {
      reader.failed = true;
      return tier;
    }
    bucket.entries.reserve(entries);
    for (std::uint64_t j = 0; j < entries && !reader.failed; ++j) {
      reader.expect("e");
      bucket.entries.push_back(reader.blob());
    }
    tier.push_back(std::move(bucket));
  }
  return tier;
}

void put_worker(std::string& out, const par::WorkerState& state) {
  out += "worker\n";
  put_rng(out, "syncrng", state.sync_rng);
  {
    put_tag(out, "cursor");
    put_u64(out, state.cursor_next.size());
    for (const std::size_t value : state.cursor_next) put_u64(out, value);
    out += '\n';
  }
  put_tag(out, "wstats");
  put_u64(out, state.published);
  put_u64(out, state.imported);
  put_u64(out, state.puzzles_imported);
  put_u64(out, state.syncs);
  put_u64(out, state.published_corpus_revision);
  put_u64(out, state.imported_global_revision);
  out += '\n';

  const fuzz::FuzzerCheckpoint& cp = state.fuzzer;
  put_rng(out, "rng", cp.rng);
  put_u64_blob(out, "dcur", cp.dedup_current);
  put_u64_blob(out, "dprev", cp.dedup_previous);
  put_tag(out, "crev");
  put_u64(out, cp.corpus.revision);
  out += '\n';
  put_corpus_tier(out, "exact", cp.corpus.exact);
  put_corpus_tier(out, "shape", cp.corpus.shape);

  put_tag(out, "crashes");
  put_u64(out, cp.crashes.size());
  out += '\n';
  for (const fuzz::CrashRecord& crash : cp.crashes) {
    put_tag(out, "crash");
    put_u64(out, static_cast<std::uint64_t>(crash.kind));
    put_u64(out, crash.site);
    put_u64(out, crash.hits);
    put_u64(out, crash.first_execution);
    put_u64(out, crash.trace_hash);
    put_string(out, crash.detail);
    put_blob(out, ByteSpan(crash.reproducer));
    out += '\n';
  }

  put_tag(out, "stats");
  put_u64(out, cp.stats_points.size());
  out += '\n';
  for (const fuzz::Checkpoint& point : cp.stats_points) {
    put_tag(out, "pt");
    put_u64(out, point.executions);
    put_u64(out, point.paths);
    put_u64(out, point.edges);
    put_u64(out, point.unique_crashes);
    put_u64(out, point.corpus_size);
    put_u64(out, point.wall_ns);
    out += '\n';
  }

  put_tag(out, "retained");
  put_u64(out, cp.retained.size());
  out += '\n';
  for (const fuzz::RetainedSeed& seed : cp.retained) {
    put_tag(out, "rs");
    put_u64(out, seed.execution);
    put_string(out, seed.model_name);
    put_blob(out, ByteSpan(seed.bytes));
    out += '\n';
  }

  put_bytes_list(out, "pending", cp.pending_batch);
  put_bytes_list(out, "pool", cp.mutation_pool);
  put_bytes_list(out, "queued", cp.imported);

  put_tag(out, "lifetime");
  put_u64(out, cp.total_retained);
  put_u64(out, cp.exported_retained);
  put_u64(out, cp.distill_passes);
  put_u64(out, cp.distill_dropped);
  out += '\n';

  put_tag(out, "exec");
  put_u64(out, cp.executions);
  out += '\n';
  put_tag(out, "cov");
  put_blob(out, ByteSpan(cp.coverage.data(), cp.coverage.size()));
  out += '\n';
  put_u64_list(out, "paths", cp.path_hashes);
  put_u64_list(out, "sstates", cp.session_states);
  out += "endworker\n";
}

bool read_worker(TokenReader& reader, par::WorkerState& state) {
  reader.expect("worker");
  state.sync_rng = read_rng(reader, "syncrng");
  {
    reader.expect("cursor");
    const std::uint64_t count = reader.u64();
    if (reader.failed || count > (1ULL << 24)) return false;
    state.cursor_next.reserve(count);
    for (std::uint64_t i = 0; i < count && !reader.failed; ++i) {
      state.cursor_next.push_back(static_cast<std::size_t>(reader.u64()));
    }
  }
  reader.expect("wstats");
  state.published = reader.u64();
  state.imported = reader.u64();
  state.puzzles_imported = reader.u64();
  state.syncs = reader.u64();
  state.published_corpus_revision = reader.u64();
  state.imported_global_revision = reader.u64();

  fuzz::FuzzerCheckpoint& cp = state.fuzzer;
  cp.rng = read_rng(reader, "rng");
  cp.dedup_current = reader.u64_blob("dcur");
  cp.dedup_previous = reader.u64_blob("dprev");
  reader.expect("crev");
  cp.corpus.revision = reader.u64();
  cp.corpus.exact = read_corpus_tier(reader, "exact");
  cp.corpus.shape = read_corpus_tier(reader, "shape");

  reader.expect("crashes");
  const std::uint64_t crashes = reader.u64();
  if (reader.failed || crashes > (1ULL << 24)) return false;
  cp.crashes.reserve(crashes);
  for (std::uint64_t i = 0; i < crashes && !reader.failed; ++i) {
    reader.expect("crash");
    fuzz::CrashRecord crash;
    crash.kind = static_cast<san::FaultKind>(reader.u64());
    crash.site = static_cast<std::uint32_t>(reader.u64());
    crash.hits = reader.u64();
    crash.first_execution = reader.u64();
    crash.trace_hash = reader.u64();
    crash.detail = reader.string();
    crash.reproducer = reader.blob();
    cp.crashes.push_back(std::move(crash));
  }

  reader.expect("stats");
  const std::uint64_t points = reader.u64();
  if (reader.failed || points > (1ULL << 24)) return false;
  cp.stats_points.reserve(points);
  for (std::uint64_t i = 0; i < points && !reader.failed; ++i) {
    reader.expect("pt");
    fuzz::Checkpoint point;
    point.executions = reader.u64();
    point.paths = static_cast<std::size_t>(reader.u64());
    point.edges = static_cast<std::size_t>(reader.u64());
    point.unique_crashes = static_cast<std::size_t>(reader.u64());
    point.corpus_size = static_cast<std::size_t>(reader.u64());
    point.wall_ns = reader.u64();
    cp.stats_points.push_back(point);
  }

  reader.expect("retained");
  const std::uint64_t retained = reader.u64();
  if (reader.failed || retained > (1ULL << 24)) return false;
  cp.retained.reserve(retained);
  for (std::uint64_t i = 0; i < retained && !reader.failed; ++i) {
    reader.expect("rs");
    fuzz::RetainedSeed seed;
    seed.execution = reader.u64();
    seed.model_name = reader.string();
    seed.bytes = reader.blob();
    cp.retained.push_back(std::move(seed));
  }

  cp.pending_batch = reader.bytes_list("pending");
  cp.mutation_pool = reader.bytes_list("pool");
  cp.imported = reader.bytes_list("queued");

  reader.expect("lifetime");
  cp.total_retained = reader.u64();
  cp.exported_retained = reader.u64();
  cp.distill_passes = reader.u64();
  cp.distill_dropped = reader.u64();

  reader.expect("exec");
  cp.executions = reader.u64();
  reader.expect("cov");
  cp.coverage = reader.blob();
  cp.path_hashes = reader.u64_list("paths");
  cp.session_states = reader.u64_list("sstates");
  reader.expect("endworker");
  return !reader.failed;
}

}  // namespace

std::string serialize_checkpoint(const CampaignCheckpoint& cp) {
  // The dedup blobs and coverage maps are nearly all of an image; sizing
  // for them up front spares the multi-MiB regrowth copies.
  std::size_t estimate = 1 << 16;
  for (const par::WorkerState& worker : cp.workers) {
    estimate += (worker.fuzzer.dedup_current.size() +
                 worker.fuzzer.dedup_previous.size()) *
                    kWordDigits +
                worker.fuzzer.coverage.size() * 2;
  }
  std::string out;
  out.reserve(estimate);
  out += kMagic;
  out += ' ';
  out += kVersion;
  out += '\n';
  put_tag(out, "campaign");
  put_u64(out, cp.completed_iterations);
  put_u64(out, cp.base_seed);
  put_u64(out, cp.iterations_per_worker);
  put_u64(out, cp.sync_interval);
  put_u64(out, cp.workers.size());
  out += '\n';
  for (const par::WorkerState& worker : cp.workers) put_worker(out, worker);
  out += "end\n";
  return out;
}

std::optional<CampaignCheckpoint> parse_checkpoint(std::string_view text) {
  TokenReader reader{text};
  reader.expect(kMagic);
  reader.expect(kVersion);
  CampaignCheckpoint cp;
  reader.expect("campaign");
  cp.completed_iterations = reader.u64();
  cp.base_seed = reader.u64();
  cp.iterations_per_worker = reader.u64();
  cp.sync_interval = reader.u64();
  const std::uint64_t workers = reader.u64();
  if (reader.failed || workers == 0 || workers > 1024) return std::nullopt;
  cp.workers.resize(workers);
  for (par::WorkerState& worker : cp.workers) {
    if (!read_worker(reader, worker)) return std::nullopt;
  }
  reader.expect("end");
  if (reader.failed) return std::nullopt;
  return cp;
}

std::optional<std::string> save_checkpoint(const CampaignCheckpoint& cp,
                                           const std::string& path) {
  return telem::write_text_atomic(path, serialize_checkpoint(cp));
}

std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path) {
  // One read into a string sized from the opened file (`ate` opens it
  // positioned at its end).
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(text.data(), size)) return std::nullopt;
  return parse_checkpoint(text);
}

}  // namespace icsfuzz::supervise
