#include "supervise/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "coverage/instrument.hpp"
#include "util/checksum.hpp"
#include "util/flat_u64_set.hpp"

namespace icsfuzz::supervise {

namespace {

// v2: per-worker "sstates" list (reached session states) after "paths".
// v3: each dedup generation is one hex blob of little-endian u64s in table
// order, replacing a sorted decimal list.
// v4: binary records — a base, then append-only segments.
// v5: v4's layout; dedup hashes use the published FNV-1a offset basis.
constexpr std::string_view kHeader = "icsfuzz-checkpoint v5\n";
constexpr std::uint8_t kBaseRecord = 'B';
constexpr std::uint8_t kSegmentRecord = 'S';
/// [u64 payload length][u32 CRC-32 of the payload] before each payload.
constexpr std::size_t kLengthBytes = sizeof(std::uint64_t);
constexpr std::size_t kFrameBytes = kLengthBytes + sizeof(std::uint32_t);
constexpr std::size_t kMaxWorkers = 1024;
// Integers and hash arrays are the values' memory copied as is, which is
// the format's little-endian byte order only on a little-endian host.
static_assert(std::endian::native == std::endian::little);

// -- Writer helpers. -------------------------------------------------------

void put_raw(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

void put_u64(std::string& out, std::uint64_t value) {
  put_raw(out, &value, sizeof value);
}

void put_bytes(std::string& out, ByteSpan bytes) {
  put_u64(out, bytes.size());
  put_raw(out, bytes.data(), bytes.size());
}

void put_string(std::string& out, const std::string& text) {
  put_u64(out, text.size());
  out += text;
}

void put_u64s(std::string& out, std::span<const std::uint64_t> words) {
  put_u64(out, words.size());
  put_raw(out, words.data(), words.size_bytes());
}

void put_bytes_list(std::string& out, const std::vector<Bytes>& blobs) {
  put_u64(out, blobs.size());
  for (const Bytes& blob : blobs) put_bytes(out, ByteSpan(blob));
}

void put_rng(std::string& out, const Rng::State& state) {
  for (const std::uint64_t word : state.words) put_u64(out, word);
}

/// The accumulated coverage map, sparse: its size (0 or cov::kMapSize),
/// then the nonzero cells as (u32 index, u8 value) in index order.
void put_coverage(std::string& out, const std::vector<std::uint8_t>& map) {
  put_u64(out, map.size());
  const std::size_t count_at = out.size();
  put_u64(out, 0);  // the cell count, patched below
  std::uint64_t cells = 0;
  std::size_t i = 0;
  while (i < map.size()) {
    // A map is mostly zero: skip it a word at a time.
    if (map.size() - i >= sizeof(std::uint64_t)) {
      std::uint64_t word = 0;
      std::memcpy(&word, map.data() + i, sizeof word);
      if (word == 0) {
        i += sizeof word;
        continue;
      }
    }
    const std::size_t end = std::min(i + sizeof(std::uint64_t), map.size());
    for (; i < end; ++i) {
      if (map[i] == 0) continue;
      const auto index = static_cast<std::uint32_t>(i);
      put_raw(out, &index, sizeof index);
      out += static_cast<char>(map[i]);
      ++cells;
    }
  }
  std::memcpy(out.data() + count_at, &cells, sizeof cells);
}

void put_corpus_tier(
    std::string& out,
    const std::vector<fuzz::CorpusSnapshot::BucketImage>& tier) {
  put_u64(out, tier.size());
  for (const fuzz::CorpusSnapshot::BucketImage& bucket : tier) {
    put_u64(out, bucket.key);
    put_bytes_list(out, bucket.entries);
  }
}

/// Everything of a worker but its dedup tables (or journal) — what every
/// record restates in full.
void put_small_state(std::string& out, const par::WorkerState& state) {
  put_rng(out, state.sync_rng);
  put_u64(out, state.cursor_next.size());
  for (const std::size_t value : state.cursor_next) put_u64(out, value);
  put_u64(out, state.published);
  put_u64(out, state.imported);
  put_u64(out, state.puzzles_imported);
  put_u64(out, state.syncs);
  put_u64(out, state.published_corpus_revision);
  put_u64(out, state.imported_global_revision);

  const fuzz::FuzzerCheckpoint& cp = state.fuzzer;
  put_rng(out, cp.rng);
  put_u64(out, cp.corpus.revision);
  put_corpus_tier(out, cp.corpus.exact);
  put_corpus_tier(out, cp.corpus.shape);

  put_u64(out, cp.crashes.size());
  for (const fuzz::CrashRecord& crash : cp.crashes) {
    put_u64(out, static_cast<std::uint64_t>(crash.kind));
    put_u64(out, crash.site);
    put_u64(out, crash.hits);
    put_u64(out, crash.first_execution);
    put_u64(out, crash.trace_hash);
    put_string(out, crash.detail);
    put_bytes(out, ByteSpan(crash.reproducer));
  }

  put_u64(out, cp.stats_points.size());
  for (const fuzz::Checkpoint& point : cp.stats_points) {
    put_u64(out, point.executions);
    put_u64(out, point.paths);
    put_u64(out, point.edges);
    put_u64(out, point.unique_crashes);
    put_u64(out, point.corpus_size);
    put_u64(out, point.wall_ns);
  }

  put_u64(out, cp.retained.size());
  for (const fuzz::RetainedSeed& seed : cp.retained) {
    put_u64(out, seed.execution);
    put_string(out, seed.model_name);
    put_bytes(out, ByteSpan(seed.bytes));
  }

  put_bytes_list(out, cp.pending_batch);
  put_bytes_list(out, cp.mutation_pool);
  put_bytes_list(out, cp.imported);

  put_u64(out, cp.total_retained);
  put_u64(out, cp.exported_retained);
  put_u64(out, cp.distill_passes);
  put_u64(out, cp.distill_dropped);
  put_u64(out, cp.executions);
  put_coverage(out, cp.coverage);
  put_u64s(out, cp.path_hashes);
  put_u64s(out, cp.session_states);
}

/// Opens a record at the end of `out`; close_record() fills in its frame.
std::size_t open_record(std::string& out, std::uint8_t kind) {
  const std::size_t frame = out.size();
  out.append(kFrameBytes, '\0');
  out += static_cast<char>(kind);
  return frame;
}

void close_record(std::string& out, std::size_t frame) {
  const std::size_t start = frame + kFrameBytes;
  const std::uint64_t length = out.size() - start;
  const std::uint32_t crc = crc32(
      ByteSpan(reinterpret_cast<const std::uint8_t*>(out.data()) + start,
               length));
  std::memcpy(out.data() + frame, &length, kLengthBytes);
  std::memcpy(out.data() + frame + kLengthBytes, &crc, sizeof crc);
}

/// Reserves room for a record of `cp`. The dedup hashes and coverage maps
/// are nearly all of it; sizing for them up front spares the multi-MiB
/// regrowth copies.
void reserve_record(std::string& out, const CampaignCheckpoint& cp) {
  std::size_t estimate = out.size() + (1 << 16);
  for (const par::WorkerState& worker : cp.workers) {
    estimate += (worker.fuzzer.dedup_current.size() +
                 worker.fuzzer.dedup_previous.size() +
                 worker.fuzzer.dedup_journal.size()) *
                    sizeof(std::uint64_t) +
                worker.fuzzer.coverage.size();
  }
  out.reserve(estimate);
}

/// A base record: the whole checkpoint. Returns the bytes it spends on
/// dedup hashes.
std::size_t put_base(std::string& out, const CampaignCheckpoint& cp) {
  const std::size_t frame = open_record(out, kBaseRecord);
  put_u64(out, cp.completed_iterations);
  put_u64(out, cp.base_seed);
  put_u64(out, cp.iterations_per_worker);
  put_u64(out, cp.sync_interval);
  put_u64(out, cp.workers.size());
  std::size_t hash_bytes = 0;
  for (const par::WorkerState& worker : cp.workers) {
    put_small_state(out, worker);
    put_u64s(out, worker.fuzzer.dedup_current);
    put_u64s(out, worker.fuzzer.dedup_previous);
    hash_bytes += (worker.fuzzer.dedup_current.size() +
                   worker.fuzzer.dedup_previous.size()) *
                  sizeof(std::uint64_t);
  }
  close_record(out, frame);
  return hash_bytes;
}

/// A segment record: the small state plus each worker's dedup journal.
/// Returns the bytes it spends on dedup hashes.
std::size_t put_segment(std::string& out, const CampaignCheckpoint& cp) {
  const std::size_t frame = open_record(out, kSegmentRecord);
  put_u64(out, cp.completed_iterations);
  put_u64(out, cp.workers.size());
  std::size_t hash_bytes = 0;
  for (const par::WorkerState& worker : cp.workers) {
    put_small_state(out, worker);
    put_u64s(out, worker.fuzzer.dedup_journal);
    hash_bytes += worker.fuzzer.dedup_journal.size() * sizeof(std::uint64_t);
  }
  close_record(out, frame);
  return hash_bytes;
}

// -- Reader. ---------------------------------------------------------------

/// Bounds-checked payload reader with sticky failure: any overrun marks
/// the reader failed and every later read returns defaults, so a record
/// parse checks once at the end.
struct Reader {
  std::string_view data;
  std::size_t pos = 0;
  bool failed = false;

  [[nodiscard]] std::size_t remaining() const { return data.size() - pos; }

  void take(void* dest, std::size_t size) {
    if (failed || remaining() < size) {
      failed = true;
      return;
    }
    if (size != 0) std::memcpy(dest, data.data() + pos, size);
    pos += size;
  }

  std::uint64_t u64() {
    std::uint64_t value = 0;
    take(&value, sizeof value);
    return value;
  }

  /// A count of items of at least `item_bytes` each: never more than the
  /// rest of the payload could hold, so no read sizes an allocation past
  /// the input.
  std::size_t count(std::size_t item_bytes) {
    const std::uint64_t value = u64();
    if (failed || value > remaining() / item_bytes) {
      failed = true;
      return 0;
    }
    return static_cast<std::size_t>(value);
  }

  Bytes bytes() {
    Bytes blob(count(1));
    take(blob.data(), blob.size());
    return blob;
  }

  std::string string() {
    std::string text(count(1), '\0');
    take(text.data(), text.size());
    return text;
  }

  std::vector<std::uint64_t> u64s() {
    std::vector<std::uint64_t> words(count(sizeof(std::uint64_t)));
    take(words.data(), words.size() * sizeof(std::uint64_t));
    return words;
  }

  std::vector<Bytes> bytes_list() {
    std::vector<Bytes> blobs(count(sizeof(std::uint64_t)));
    for (Bytes& blob : blobs) blob = bytes();
    return blobs;
  }

  Rng::State rng() {
    Rng::State state{};
    for (std::uint64_t& word : state.words) word = u64();
    return state;
  }

  std::vector<std::uint8_t> coverage() {
    const std::uint64_t size = u64();
    if (size != 0 && size != cov::kMapSize) failed = true;
    constexpr std::size_t kCellBytes = sizeof(std::uint32_t) + 1;
    const std::size_t cells = count(kCellBytes);
    if (failed) return {};
    std::vector<std::uint8_t> map(static_cast<std::size_t>(size), 0);
    std::uint64_t next = 0;  // cells are strictly ascending and nonzero
    for (std::size_t i = 0; i < cells; ++i) {
      std::uint32_t index = 0;
      std::uint8_t value = 0;
      take(&index, sizeof index);
      take(&value, 1);
      if (failed || index < next || index >= size || value == 0) {
        failed = true;
        return {};
      }
      map[index] = value;
      next = std::uint64_t{index} + 1;
    }
    return map;
  }

  std::vector<fuzz::CorpusSnapshot::BucketImage> corpus_tier() {
    std::vector<fuzz::CorpusSnapshot::BucketImage> tier(
        count(2 * sizeof(std::uint64_t)));
    for (fuzz::CorpusSnapshot::BucketImage& bucket : tier) {
      bucket.key = u64();
      bucket.entries = bytes_list();
    }
    return tier;
  }
};

void read_small_state(Reader& reader, par::WorkerState& state) {
  state.sync_rng = reader.rng();
  state.cursor_next.resize(reader.count(sizeof(std::uint64_t)));
  for (std::size_t& value : state.cursor_next) {
    value = static_cast<std::size_t>(reader.u64());
  }
  state.published = reader.u64();
  state.imported = reader.u64();
  state.puzzles_imported = reader.u64();
  state.syncs = reader.u64();
  state.published_corpus_revision = reader.u64();
  state.imported_global_revision = reader.u64();

  fuzz::FuzzerCheckpoint& cp = state.fuzzer;
  cp.rng = reader.rng();
  cp.corpus.revision = reader.u64();
  cp.corpus.exact = reader.corpus_tier();
  cp.corpus.shape = reader.corpus_tier();

  cp.crashes.resize(reader.count(7 * sizeof(std::uint64_t)));
  for (fuzz::CrashRecord& crash : cp.crashes) {
    crash.kind = static_cast<san::FaultKind>(reader.u64());
    crash.site = static_cast<std::uint32_t>(reader.u64());
    crash.hits = reader.u64();
    crash.first_execution = reader.u64();
    crash.trace_hash = reader.u64();
    crash.detail = reader.string();
    crash.reproducer = reader.bytes();
  }

  cp.stats_points.resize(reader.count(6 * sizeof(std::uint64_t)));
  for (fuzz::Checkpoint& point : cp.stats_points) {
    point.executions = reader.u64();
    point.paths = static_cast<std::size_t>(reader.u64());
    point.edges = static_cast<std::size_t>(reader.u64());
    point.unique_crashes = static_cast<std::size_t>(reader.u64());
    point.corpus_size = static_cast<std::size_t>(reader.u64());
    point.wall_ns = reader.u64();
  }

  cp.retained.resize(reader.count(3 * sizeof(std::uint64_t)));
  for (fuzz::RetainedSeed& seed : cp.retained) {
    seed.execution = reader.u64();
    seed.model_name = reader.string();
    seed.bytes = reader.bytes();
  }

  cp.pending_batch = reader.bytes_list();
  cp.mutation_pool = reader.bytes_list();
  cp.imported = reader.bytes_list();

  cp.total_retained = reader.u64();
  cp.exported_retained = reader.u64();
  cp.distill_passes = reader.u64();
  cp.distill_dropped = reader.u64();
  cp.executions = reader.u64();
  cp.coverage = reader.coverage();
  cp.path_hashes = reader.u64s();
  cp.session_states = reader.u64s();
}

/// The payload of the whole record at `pos`, or nullopt when the record is
/// torn (its frame or payload runs past the end) or its CRC mismatches.
std::optional<std::string_view> next_record(std::string_view log,
                                            std::size_t& pos) {
  if (log.size() - pos < kFrameBytes) return std::nullopt;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  std::memcpy(&length, log.data() + pos, kLengthBytes);
  std::memcpy(&crc, log.data() + pos + kLengthBytes, sizeof crc);
  if (log.size() - pos - kFrameBytes < length) return std::nullopt;
  const std::string_view payload = log.substr(pos + kFrameBytes, length);
  if (crc32(ByteSpan(reinterpret_cast<const std::uint8_t*>(payload.data()),
                     payload.size())) != crc) {
    return std::nullopt;
  }
  pos += kFrameBytes + length;
  return payload;
}

/// Each worker's current dedup generation while the loader replays
/// segments: rebuilt from the base's list at the first segment that inserts
/// into it. Segments never touch the previous generation, and a worker no
/// segment inserts into keeps its lists as read.
using ReplayTables = std::vector<std::optional<FlatU64Set>>;

std::optional<CampaignCheckpoint> read_base(std::string_view payload) {
  Reader reader{payload};
  std::uint8_t kind = 0;
  reader.take(&kind, 1);
  CampaignCheckpoint cp;
  cp.completed_iterations = reader.u64();
  cp.base_seed = reader.u64();
  cp.iterations_per_worker = reader.u64();
  cp.sync_interval = reader.u64();
  const std::uint64_t workers = reader.u64();
  if (reader.failed || kind != kBaseRecord || workers == 0 ||
      workers > kMaxWorkers) {
    return std::nullopt;
  }
  cp.workers.resize(workers);
  for (std::size_t w = 0; w < workers && !reader.failed; ++w) {
    read_small_state(reader, cp.workers[w]);
    cp.workers[w].fuzzer.dedup_current = reader.u64s();
    cp.workers[w].fuzzer.dedup_previous = reader.u64s();
  }
  if (reader.failed || reader.remaining() != 0) return std::nullopt;
  return cp;
}

/// Applies a segment to `cp` and `tables`, or leaves both untouched and
/// returns false when the segment does not parse as one of this log.
bool apply_segment(std::string_view payload, CampaignCheckpoint& cp,
                   ReplayTables& tables) {
  Reader reader{payload};
  std::uint8_t kind = 0;
  reader.take(&kind, 1);
  const std::uint64_t completed = reader.u64();
  const std::uint64_t workers = reader.u64();
  if (reader.failed || kind != kSegmentRecord ||
      workers != cp.workers.size()) {
    return false;
  }
  std::vector<par::WorkerState> states(workers);
  std::vector<std::vector<std::uint64_t>> journals(workers);
  for (std::size_t w = 0; w < workers && !reader.failed; ++w) {
    read_small_state(reader, states[w]);
    journals[w] = reader.u64s();
  }
  if (reader.failed || reader.remaining() != 0) return false;
  cp.completed_iterations = completed;
  for (std::size_t w = 0; w < workers; ++w) {
    fuzz::FuzzerCheckpoint& older = cp.workers[w].fuzzer;
    states[w].fuzzer.dedup_current = std::move(older.dedup_current);
    states[w].fuzzer.dedup_previous = std::move(older.dedup_previous);
    cp.workers[w] = std::move(states[w]);
    if (journals[w].empty()) continue;
    if (!tables[w]) {
      tables[w].emplace();
      tables[w]->restore(cp.workers[w].fuzzer.dedup_current);
    }
    for (const std::uint64_t hash : journals[w]) tables[w]->insert(hash);
  }
  return true;
}

// -- Durable file writes. --------------------------------------------------

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t written = ::write(fd, data.data(), data.size());
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(written));
  }
  return true;
}

/// Replaces `path` with `bytes`: tmp file, fsync, rename, then an fsync of
/// the directory so the rename itself survives a power loss.
std::optional<std::string> write_durably(const std::string& path,
                                         std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return errno_text("cannot open " + tmp);
  if (!write_all(fd, bytes) || ::fsync(fd) != 0) {
    const std::string error = errno_text("cannot write " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return error;
  }
  if (::close(fd) != 0) return errno_text("cannot close " + tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return errno_text("cannot rename " + tmp);
  }
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string directory = parent.empty() ? "." : parent.string();
  const int dir = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir < 0) return errno_text("cannot open " + directory);
  const bool synced = ::fsync(dir) == 0;
  ::close(dir);
  if (!synced) return errno_text("cannot sync " + directory);
  return std::nullopt;
}

/// Appends `bytes` to `path` and fdatasyncs it.
std::optional<std::string> append_durably(const std::string& path,
                                          std::string_view bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return errno_text("cannot open " + path);
  if (!write_all(fd, bytes) || ::fdatasync(fd) != 0) {
    const std::string error = errno_text("cannot append to " + path);
    ::close(fd);
    return error;
  }
  if (::close(fd) != 0) return errno_text("cannot close " + path);
  return std::nullopt;
}

}  // namespace

std::string serialize_checkpoint(const CampaignCheckpoint& cp) {
  std::string out(kHeader);
  reserve_record(out, cp);
  put_base(out, cp);
  return out;
}

std::optional<CampaignCheckpoint> parse_checkpoint(std::string_view text) {
  if (!text.starts_with(kHeader)) return std::nullopt;
  std::size_t pos = kHeader.size();
  const std::optional<std::string_view> base = next_record(text, pos);
  if (!base) return std::nullopt;
  std::optional<CampaignCheckpoint> cp = read_base(*base);
  if (!cp) return std::nullopt;
  // Segments up to the first torn, mis-checksummed or malformed record.
  ReplayTables tables(cp->workers.size());
  while (const std::optional<std::string_view> segment =
             next_record(text, pos)) {
    if (!apply_segment(*segment, *cp, tables)) break;
  }
  for (std::size_t w = 0; w < cp->workers.size(); ++w) {
    if (tables[w]) cp->workers[w].fuzzer.dedup_current = tables[w]->snapshot();
  }
  return cp;
}

std::optional<std::string> save_checkpoint(const CampaignCheckpoint& cp,
                                           const std::string& path) {
  return write_durably(path, serialize_checkpoint(cp));
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

bool CheckpointWriter::accepts_segment() const {
  // Appending supersedes the newest record's small state.
  return has_base_ &&
         superseded_bytes_ + newest_small_bytes_ <= base_bytes_;
}

std::optional<std::string> CheckpointWriter::save(
    const CampaignCheckpoint& cp) {
  const bool segment = !cp.workers.empty() && cp.workers[0].fuzzer.dedup_delta;
  if (segment && !accepts_segment()) {
    has_base_ = false;
    return "checkpoint segment without a base to append to";
  }
  std::string out(segment ? std::string_view() : kHeader);
  reserve_record(out, cp);
  const std::size_t hash_bytes =
      segment ? put_segment(out, cp) : put_base(out, cp);
  // Until the write below succeeds the file's tail is unknown; a failed
  // save leaves the next one to write a fresh base.
  has_base_ = false;
  if (std::optional<std::string> error =
          segment ? append_durably(path_, out) : write_durably(path_, out)) {
    return error;
  }
  has_base_ = true;
  const std::size_t small_bytes = out.size() - hash_bytes;
  if (segment) {
    superseded_bytes_ += newest_small_bytes_;
  } else {
    base_bytes_ = out.size();
    superseded_bytes_ = 0;
  }
  newest_small_bytes_ = small_bytes;
  return std::nullopt;
}

}  // namespace icsfuzz::supervise
