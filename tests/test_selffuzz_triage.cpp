// Self-fuzzing harness for the triage store's journal replay
// (supervise/triage_store, TriageStore::open over index.jsonl).
//
// The journal is the store's only index and is read back after a killed
// writer, a torn line or a hand edit, and every bucket it names becomes
// the file name repro/<bucket>.bin. So replay must survive any bytes, and
// keep only records whose bucket is the one their own fields derive. This
// harness drives that with the fuzzer's own byte mutators (the operators
// Strategy::ByteMutation stacks), in the shape of
// test_selffuzz_checkpoint.cpp: the pool starts with the journals of a few
// ingests as the store writes them, and each round stacks 1-8 mutations on
// a pool entry — on the whole journal or on one line of it — or swaps a
// few digits for digits (hex letters too, so sites, trace hashes and
// bucket ids move), sometimes truncating it or dropping in a line from
// another one, and keeps some inputs that replay to records as new seeds.
//
// For every input:
//   * open() returns true (ASan in the CI fault-stress lane catches what a
//     crash would be);
//   * every replayed record's bucket is triage_bucket_id of its kind, site
//     and trace hash, and no bucket is replayed twice;
//   * replay -> persist -> reopen is stable: the replayed records, ingested
//     into a fresh store, read back from its journal field for field.
//
// The budget is fixed; the seed is fixed too unless ICSFUZZ_STRESS_SEED is
// set, which the CI fault-stress lane does with a fresh value per round.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "fuzzer/crash_db.hpp"
#include "mutation/mutator.hpp"
#include "supervise/triage_store.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

namespace fs = std::filesystem;

constexpr int kRounds = 600;
constexpr std::size_t kPoolCap = 64;

/// FNV-1a of ICSFUZZ_STRESS_SEED, or a fixed seed when it is unset.
std::uint64_t harness_seed() {
  const char* stress = std::getenv("ICSFUZZ_STRESS_SEED");
  if (stress == nullptr) return 0x7214A6E0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = stress; *c != '\0'; ++c) {
    hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
  }
  return hash;
}

Bytes to_bytes(const std::string& text) {
  return Bytes(text.begin(), text.end());
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const fs::path& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Crash records covering several kinds, zero and full-width hex fields,
/// and details with everything json_escape has to handle.
std::vector<fuzz::CrashRecord> crash_records() {
  const san::FaultKind kinds[] = {san::FaultKind::Segv,
                                  san::FaultKind::HeapUseAfterFree,
                                  san::FaultKind::Hang};
  const char* const details[] = {"plain", "quote \" and backslash \\",
                                 "tab\tnewline\n ctl \x01 utf8 \xc3\xa9"};
  std::vector<fuzz::CrashRecord> records;
  for (std::size_t i = 0; i < 3; ++i) {
    fuzz::CrashRecord record;
    record.kind = kinds[i];
    record.site = i == 0 ? 0 : 0x5f11e251u * static_cast<std::uint32_t>(i);
    record.trace_hash = i == 1 ? 0 : 0xFEDCBA9876543210ULL >> i;
    record.detail = details[i];
    record.reproducer = Bytes(i + 1, static_cast<std::uint8_t>(0x11 * i));
    record.hits = 1 + i * 1000;
    record.first_execution = (std::uint64_t{1} << (20 * i)) + i;
    records.push_back(record);
  }
  return records;
}

/// The journal of ingesting every record twice (the second ingest appends
/// each bucket's updated line) into a store at `directory`.
std::string seed_journal(const fs::path& directory) {
  supervise::TriageStore store(directory.string());
  EXPECT_TRUE(store.open());
  for (int pass = 0; pass < 2; ++pass) {
    for (const fuzz::CrashRecord& record : crash_records()) {
      store.ingest(record, /*target=*/nullptr);
    }
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

/// Rewrites 1-4 digits of `doc` into other digits of the same kind
/// (decimal for decimal, hex letter for hex letter): the syntax holds, so
/// these inputs reach the bucket check.
void swap_digits(Bytes& doc, Rng& rng) {
  const std::uint64_t swaps = rng.between(1, 4);
  for (std::uint64_t i = 0; i < swaps && !doc.empty(); ++i) {
    std::uint8_t& c = doc[rng.index(doc.size())];
    if (c >= '0' && c <= '9') {
      c = static_cast<std::uint8_t>('0' + rng.below(10));
    } else if (c >= 'a' && c <= 'f') {
      c = static_cast<std::uint8_t>('a' + rng.below(6));
    }
  }
}

/// One harness input: a mutation stack on `seed`, applied to the whole
/// journal or to one line, or a few digit swaps, plus the occasional
/// truncation or foreign line.
Bytes mutate_journal(const Bytes& seed, const std::vector<Bytes>& pool,
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
    case 0:  // torn write: the journal stops anywhere
      doc.resize(rng.below(doc.size() + 1));
      break;
    case 1: {  // a line from another journal, dropped in anywhere
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

/// Field-for-field record equality; a diagnostic, empty when equal.
std::string record_defect(const supervise::TriageRecord& a,
                          const supervise::TriageRecord& b) {
  if (a.bucket != b.bucket) return "bucket " + a.bucket + " vs " + b.bucket;
  if (a.kind != b.kind || a.site != b.site || a.trace_hash != b.trace_hash) {
    return "key fields of " + a.bucket;
  }
  if (a.detail != b.detail) return "detail of " + a.bucket;
  if (a.hits != b.hits || a.first_execution != b.first_execution ||
      a.ingests != b.ingests || a.verified != b.verified ||
      a.minimized != b.minimized || a.reproducer_bytes != b.reproducer_bytes ||
      a.original_bytes != b.original_bytes) {
    return "counters of " + a.bucket;
  }
  return {};
}

TEST(SelfFuzzTriage, MutatedJournalsReplayToDerivedBucketsAndPersistStably) {
  const std::uint64_t seed = harness_seed();
  const mutation::MutatorSuite mutators;
  Rng rng(seed);
  const fs::path scratch =
      fs::path(::testing::TempDir()) /
      ("icsfuzz-selffuzz-triage-" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  fs::create_directories(scratch / "seed");
  fs::create_directories(scratch / "store");

  std::vector<Bytes> pool = {to_bytes(seed_journal(scratch / "seed"))};
  {
    // The seed replays to one record per bucket, last line wins.
    supervise::TriageStore seeded((scratch / "seed").string());
    ASSERT_TRUE(seeded.open());
    ASSERT_EQ(seeded.records().size(), crash_records().size());
    for (const supervise::TriageRecord& record : seeded.records()) {
      EXPECT_EQ(record.ingests, 2u) << record.bucket;
    }
  }

  std::size_t replayed = 0;
  std::size_t dropped = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Bytes input = mutate_journal(rng.pick(pool), pool, mutators, rng);
    const std::string label =
        "seed=" + std::to_string(seed) + " round=" + std::to_string(round);
    write_file(scratch / "store" / "index.jsonl", input);
    supervise::TriageStore store((scratch / "store").string());
    ASSERT_TRUE(store.open()) << label << ": " << store.error();
    if (store.records().size() < lines_of(input).size()) ++dropped;
    if (store.records().empty()) continue;
    ++replayed;
    if (rng.chance(1, 2) && pool.size() < kPoolCap) pool.push_back(input);

    std::set<std::string> buckets;
    for (const supervise::TriageRecord& record : store.records()) {
      ASSERT_EQ(record.bucket, supervise::triage_bucket_id(
                                   record.kind, record.site, record.trace_hash))
          << label << ": a replayed bucket its fields do not derive";
      ASSERT_TRUE(buckets.insert(record.bucket).second)
          << label << ": bucket " << record.bucket << " replayed twice";
    }

    // Persist the replayed records into a fresh store, then reopen it.
    const fs::path fresh = scratch / "persist";
    fs::remove_all(fresh);
    supervise::TriageStore persisted(fresh.string());
    ASSERT_TRUE(persisted.open()) << label;
    for (const supervise::TriageRecord& record : store.records()) {
      fuzz::CrashRecord crash;
      crash.kind = record.kind;
      crash.site = record.site;
      crash.trace_hash = record.trace_hash;
      crash.detail = record.detail;
      crash.hits = record.hits;
      crash.first_execution = record.first_execution;
      crash.reproducer = {0x01};
      ASSERT_EQ(persisted.ingest(crash, nullptr).bucket, record.bucket)
          << label;
    }
    supervise::TriageStore reopened(fresh.string());
    ASSERT_TRUE(reopened.open()) << label;
    ASSERT_EQ(reopened.records().size(), persisted.records().size()) << label;
    for (std::size_t i = 0; i < reopened.records().size(); ++i) {
      ASSERT_EQ(record_defect(reopened.records()[i], persisted.records()[i]),
                "")
          << label << ": persist -> reopen is not stable";
      ASSERT_EQ(reopened.records()[i].detail, store.records()[i].detail)
          << label;
    }
  }
  fs::remove_all(scratch);
  // The mutators must reach both sides: journals that still replay to
  // records, and lines the replay drops.
  EXPECT_GT(replayed, static_cast<std::size_t>(kRounds / 10));
  EXPECT_GT(dropped, static_cast<std::size_t>(kRounds / 10));
}

}  // namespace
}  // namespace icsfuzz
