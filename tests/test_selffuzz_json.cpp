// Self-fuzzing harness for util/json and the three readers built on it.
//
// Every JSON document the repo writes is also read back, sometimes after a
// crash, a torn write or a hand edit: the telemetry snapshot
// (telem::snapshot_from_json, read by icsfuzz-stats), the event journal
// (EventJournal::parse_line / from_jsonl) and the triage store's
// index.jsonl (TriageStore::open, which also reads a saved session's
// crashes). This harness drives all of them with the
// fuzzer's own byte mutators (the operators Strategy::ByteMutation
// stacks), in the shape of test_selffuzz_checkpoint.cpp: the pool starts
// with one document of each kind as the repo writes it, and each round
// stacks 1-8 mutations on a pool entry — on the whole document or on one
// line of it — or swaps a few digits for digits, sometimes truncating the
// document or dropping in a line from another one, and keeps some inputs
// json_parse accepts as new seeds.
//
// For every input:
//   * json_parse and the three readers return (ASan in the CI fault-stress
//     lane catches what a crash would be);
//   * json_escape round-trips: the input, escaped and quoted, parses back
//     into exactly the input's bytes;
//   * every number json_parse accepted as an exact integer (is_u64) below
//     2^53 carries the same value in its double;
//   * an accepted snapshot or journal re-serialises to a fixed point:
//     written, read and written again, it is the same bytes.
//
// The budget is fixed; the seed is fixed too unless ICSFUZZ_STRESS_SEED is
// set, which the CI fault-stress lane does with a fresh value per round.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "fuzzer/crash_db.hpp"
#include "mutation/mutator.hpp"
#include "supervise/triage_store.hpp"
#include "telemetry/export.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

namespace fs = std::filesystem;

constexpr int kRounds = 1000;
constexpr std::size_t kPoolCap = 64;

/// FNV-1a of ICSFUZZ_STRESS_SEED, or a fixed seed when it is unset.
std::uint64_t harness_seed() {
  const char* stress = std::getenv("ICSFUZZ_STRESS_SEED");
  if (stress == nullptr) return 0x150F0221;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = stress; *c != '\0'; ++c) {
    hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
  }
  return hash;
}

Bytes to_bytes(const std::string& text) {
  return Bytes(text.begin(), text.end());
}

std::string to_text(const Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Detail strings with everything json_escape has to handle.
const char* const kDetails[] = {
    "plain", "quote \" and backslash \\", "tab\tnewline\ncr\r",
    "ctl \x01\x1f end", "utf8 \xc3\xa9 and raw \xff\xfe bytes",
};

/// A telemetry snapshot with every kind of field populated.
std::string snapshot_document() {
  telem::Telemetry hub;
  const telem::Sink sink(&hub, 0);
  sink.add(telem::Counter::kExecutions, 123456789);
  sink.add(telem::Counter::kOopAdoptFullScans, 3);
  sink.add(telem::Counter::kUniqueCrashes, 2);
  sink.set(telem::Gauge::kEdgesCovered, 4242);
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v *= 7) {
    sink.observe(telem::Histogram::kExecLatencyNs, v);
  }
  return telem::to_json(hub.snapshot());
}

/// Journal lines, one per event type shape the campaign writes.
std::string journal_document() {
  telem::EventJournal journal;
  std::uint64_t ts = 1;
  for (const char* detail : kDetails) {
    journal.append(telem::EventType::kCrash, ts, 1, 0xDEADBEEFCAFEF00DULL,
                   detail);
    journal.append(telem::EventType::kHang, ts * 1000003, 0, 0, detail);
    ts = ts * 31 + 7;
  }
  return journal.to_jsonl();
}

/// The two crash records the triage document below describes.
std::vector<fuzz::CrashRecord> crash_records() {
  std::vector<fuzz::CrashRecord> records(2);
  records[0].kind = san::FaultKind::Segv;
  records[0].site = 0x5f11e251;
  records[0].detail = kDetails[1];
  records[0].reproducer = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x11, 0x03};
  records[0].hits = 17;
  records[0].first_execution = 9000;
  records[0].trace_hash = 0x0123456789ABCDEFULL;
  records[1].kind = san::FaultKind::HeapUseAfterFree;
  records[1].site = 0x472fc8ff;
  records[1].detail = kDetails[4];
  records[1].reproducer = {0xFF};
  records[1].hits = 1;
  records[1].first_execution = (std::uint64_t{1} << 53) + 1;
  return records;
}

/// A triage store's index.jsonl, as ingest writes it.
std::string triage_document(const fs::path& directory) {
  supervise::TriageStore store(directory.string());
  EXPECT_TRUE(store.open());
  for (const fuzz::CrashRecord& record : crash_records()) {
    store.ingest(record, /*target=*/nullptr);
  }
  return read_file(directory / "index.jsonl");
}

/// Byte ranges [begin, end) of the lines of `doc` (newline included).
std::vector<std::pair<std::size_t, std::size_t>> lines_of(const Bytes& doc) {
  std::vector<std::pair<std::size_t, std::size_t>> lines;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i] == '\n') {
      lines.emplace_back(begin, i + 1);
      begin = i + 1;
    }
  }
  if (begin < doc.size()) lines.emplace_back(begin, doc.size());
  return lines;
}

/// Rewrites 1-4 decimal digits of `doc` into other digits: the syntax
/// holds, so these inputs reach the readers' semantic checks.
void swap_digits(Bytes& doc, Rng& rng) {
  const std::uint64_t swaps = rng.between(1, 4);
  for (std::uint64_t i = 0; i < swaps && !doc.empty(); ++i) {
    std::uint8_t& c = doc[rng.index(doc.size())];
    if (c >= '0' && c <= '9') c = static_cast<std::uint8_t>('0' + rng.below(10));
  }
}

/// One harness input: a mutation stack on `seed`, applied to the whole
/// document or to one line, or a few digit swaps, plus the occasional
/// truncation or foreign line.
Bytes mutate_document(const Bytes& seed, const std::vector<Bytes>& pool,
                      const mutation::MutatorSuite& mutators, Rng& rng) {
  Bytes doc = seed;
  const std::uint64_t stack = rng.between(1, 8);
  const auto lines = lines_of(doc);
  const std::uint64_t mode = rng.below(4);
  if (mode == 0) {
    swap_digits(doc, rng);
  } else if (lines.empty() || mode == 1) {
    for (std::uint64_t i = 0; i < stack; ++i) mutators.mutate_in_place(doc, rng);
  } else {
    const auto [begin, end] = rng.pick(lines);
    Bytes line(doc.begin() + static_cast<std::ptrdiff_t>(begin),
               doc.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::uint64_t i = 0; i < stack; ++i) {
      mutators.mutate_in_place(line, rng);
    }
    Bytes spliced(doc.begin(), doc.begin() + static_cast<std::ptrdiff_t>(begin));
    append(spliced, ByteSpan(line));
    spliced.insert(spliced.end(),
                   doc.begin() + static_cast<std::ptrdiff_t>(end), doc.end());
    doc = std::move(spliced);
  }
  switch (rng.below(8)) {
    case 0:  // torn write: the document stops anywhere
      doc.resize(rng.below(doc.size() + 1));
      break;
    case 1: {  // a line from another document, dropped in anywhere
      const Bytes& donor = rng.pick(pool);
      const auto donor_lines = lines_of(donor);
      const auto target_lines = lines_of(doc);
      if (!donor_lines.empty() && !target_lines.empty()) {
        const auto [from, to] = rng.pick(donor_lines);
        const std::size_t at = rng.pick(target_lines).first;
        doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(at),
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.begin() + static_cast<std::ptrdiff_t>(to));
      }
      break;
    }
    default:
      break;
  }
  return doc;
}

/// Every exact integer json_parse kept below 2^53 must equal its double
/// (both are exact there). Returns a diagnostic, empty when none.
std::string u64_defect(const JsonValue& value) {
  if (value.is_number() && value.is_u64 &&
      value.u64 < (std::uint64_t{1} << 53) &&
      value.number != static_cast<double>(value.u64)) {
    return "u64 " + std::to_string(value.u64) + " vs number " +
           std::to_string(value.number);
  }
  for (const JsonValue& item : value.items) {
    if (std::string defect = u64_defect(item); !defect.empty()) return defect;
  }
  for (const auto& member : value.members) {
    if (std::string defect = u64_defect(member.second); !defect.empty()) {
      return defect;
    }
  }
  return {};
}

/// The lines of `text` json_parse accepts, parsed.
std::size_t accepted_lines(std::string_view text, const std::string& label) {
  std::size_t accepted = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    if (const std::optional<JsonValue> doc =
            json_parse(text.substr(start, end - start))) {
      ++accepted;
      EXPECT_EQ(u64_defect(*doc), "") << label;
    }
    start = end + 1;
  }
  return accepted;
}

/// Journal events re-serialised the way the campaign writes them.
std::string journal_jsonl(const std::vector<telem::Event>& events) {
  telem::EventJournal journal(events.size() + 1);
  for (const telem::Event& event : events) journal.append(event);
  return journal.to_jsonl();
}

TEST(SelfFuzzJson, MutatedDocumentsNeverCrashTheReadersAndRoundTrip) {
  const std::uint64_t seed = harness_seed();
  const mutation::MutatorSuite mutators;
  Rng rng(seed);
  const fs::path scratch =
      fs::path(::testing::TempDir()) /
      ("icsfuzz-selffuzz-json-" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  fs::create_directories(scratch / "seed");
  fs::create_directories(scratch / "store");

  std::vector<Bytes> pool = {
      to_bytes(snapshot_document()), to_bytes(journal_document()),
      to_bytes(triage_document(scratch / "seed"))};
  // The seeds are what the writers produce: the snapshot parses whole,
  // every line of the two JSONL documents parses on its own.
  ASSERT_TRUE(json_parse(to_text(pool[0])).has_value());
  for (std::size_t i = 1; i < pool.size(); ++i) {
    const std::string text = to_text(pool[i]);
    ASSERT_EQ(accepted_lines(text, "seed"), lines_of(pool[i]).size()) << text;
  }
  ASSERT_TRUE(telem::snapshot_from_json(to_text(pool[0])).has_value());
  ASSERT_EQ(telem::EventJournal::from_jsonl(to_text(pool[1])).size(),
            2 * std::size(kDetails));

  std::size_t accepted = 0;
  std::size_t snapshots = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Bytes input = mutate_document(rng.pick(pool), pool, mutators, rng);
    const std::string text = to_text(input);
    const std::string label =
        "seed=" + std::to_string(seed) + " round=" + std::to_string(round);

    // json_escape: any bytes, escaped and quoted, parse back to themselves.
    const std::optional<JsonValue> quoted =
        json_parse("\"" + json_escape(text) + "\"");
    ASSERT_TRUE(quoted.has_value() && quoted->is_string()) << label;
    ASSERT_TRUE(quoted->string == text) << label << ": json_escape round trip";

    // json_parse, whole document and line by line.
    if (const std::optional<JsonValue> doc = json_parse(text)) {
      ASSERT_EQ(u64_defect(*doc), "") << label;
      ++accepted;
      if (rng.chance(1, 2) && pool.size() < kPoolCap) pool.push_back(input);
    }
    accepted += accepted_lines(text, label);

    // The telemetry snapshot reader: an accepted snapshot re-serialises to
    // a fixed point.
    if (const std::optional<telem::Snapshot> snapshot =
            telem::snapshot_from_json(text)) {
      ++snapshots;
      const std::string first = telem::to_json(*snapshot);
      const std::optional<telem::Snapshot> again =
          telem::snapshot_from_json(first);
      ASSERT_TRUE(again.has_value()) << label;
      ASSERT_TRUE(telem::to_json(*again) == first)
          << label << ": snapshot is not a fixed point";
    }

    // The journal reader: the events it keeps re-serialise to a fixed
    // point.
    const std::vector<telem::Event> events =
        telem::EventJournal::from_jsonl(text);
    if (!events.empty()) {
      const std::string first = journal_jsonl(events);
      ASSERT_TRUE(journal_jsonl(telem::EventJournal::from_jsonl(first)) ==
                  first)
          << label << ": journal is not a fixed point";
    }

    // The triage store's journal replay, from the file it reads.
    {
      std::ofstream out(scratch / "store" / "index.jsonl",
                        std::ios::binary | std::ios::trunc);
      out << text;
    }
    supervise::TriageStore store((scratch / "store").string());
    ASSERT_TRUE(store.open()) << label << ": " << store.error();
  }
  fs::remove_all(scratch);
  // The mutators must reach both sides of json_parse, and some mutated
  // snapshots must still read as snapshots.
  EXPECT_GT(accepted, static_cast<std::size_t>(kRounds / 10));
  EXPECT_GT(snapshots, 0u);
}

}  // namespace
}  // namespace icsfuzz
