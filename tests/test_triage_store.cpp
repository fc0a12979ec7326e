// Crash persistence + triage-store coverage: save_session's crash store
// (fuzzer/persistence.hpp writes a session's crashes as a TriageStore) and
// the on-disk TriageStore (supervise/triage_store.hpp) — bucketing,
// reproducer re-verification, tmin minimization on ingest, journal-replay
// reopen, re-ingest accumulation, torn-journal tolerance, atomic
// reproducer side files and reported write failures.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "distill/replay.hpp"
#include "fuzzer/crash_db.hpp"
#include "fuzzer/fuzzer.hpp"
#include "fuzzer/persistence.hpp"
#include "pits/pits.hpp"
#include "protocols/lib60870/cs101_server.hpp"
#include "supervise/triage_store.hpp"

namespace icsfuzz {
namespace {

namespace fs = std::filesystem;

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& stem) {
    path_ = fs::temp_directory_path() /
            (stem + "-" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// One real crashing campaign, shared across the suite (the lib60870 CS101
/// target reliably yields its Table-I SEGVs at this seed/budget — the same
/// recipe test_distill's replay oracle uses).
struct CrashCampaign {
  model::DataModelSet models = pits::cs101_pit();
  proto::Cs101Server server;
  fuzz::Fuzzer fuzzer;

  CrashCampaign() : fuzzer(server, models, config()) { fuzzer.run(25000); }

  static fuzz::FuzzerConfig config() {
    fuzz::FuzzerConfig config;
    config.strategy = fuzz::Strategy::PeachStar;
    config.rng_seed = 5;
    return config;
  }
};

CrashCampaign& campaign() {
  static CrashCampaign instance;
  return instance;
}

// ------------------------------------------------- A session's crash store

/// Two records that exercise the format's edges: escapes in the detail, a
/// NUL in the reproducer, the all-ones site; an empty detail and an empty
/// reproducer.
std::vector<fuzz::CrashRecord> synthetic_crashes() {
  fuzz::CrashRecord segv;
  segv.kind = san::FaultKind::Segv;
  segv.site = 0x0012abcd;
  segv.detail = "read of freed chunk\nwith a \"quoted\" tail \\ and tab\t";
  segv.reproducer = Bytes{0x00, 0xff, 0x7f, 0x00, 0x41};
  segv.hits = 3;
  segv.first_execution = 42;
  segv.trace_hash = 0x0123456789abcdefULL;

  fuzz::CrashRecord hang;
  hang.kind = san::FaultKind::Hang;
  hang.site = 0xffffffff;
  hang.detail = "";
  hang.reproducer = Bytes{};
  hang.hits = 1;
  hang.first_execution = 7;
  hang.trace_hash = 0;
  return {segv, hang};
}

/// Every file under `directory`, relative to it, sorted.
std::vector<std::string> files_under(const fs::path& directory) {
  std::vector<std::string> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(directory)) {
    if (entry.is_regular_file()) {
      files.push_back(fs::relative(entry.path(), directory).string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(SessionCrashStore, SaveSessionRoundTripsEveryField) {
  // A campaign whose CrashDb holds exactly the synthetic records.
  const model::DataModelSet models = pits::cs101_pit();
  proto::Cs101Server server;
  fuzz::Fuzzer fuzzer(server, models, CrashCampaign::config());
  fuzz::FuzzerCheckpoint image = fuzzer.capture_checkpoint();
  image.crashes = synthetic_crashes();
  fuzzer.restore_checkpoint(image);
  const std::vector<const fuzz::CrashRecord*> expected =
      fuzzer.crashes().records();
  ASSERT_EQ(expected.size(), 2u);

  const ScopedTempDir dir("icsfuzz-session-crashes");
  for (int save = 0; save < 2; ++save) {
    SCOPED_TRACE("save " + std::to_string(save));
    ASSERT_FALSE(fuzz::save_session(fuzzer, dir.str()).has_value());

    // One format: the store, nothing beside it.
    EXPECT_FALSE(fs::exists(dir.path() / "crashes.jsonl"));
    std::vector<std::string> want = {"index.jsonl"};
    for (const fuzz::CrashRecord* crash : expected) {
      want.push_back("repro/" +
                     supervise::triage_bucket_id(crash->kind, crash->site,
                                                 crash->trace_hash) +
                     ".bin");
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(files_under(dir.path() / "crashes"), want);

    // Discovery order, every field; a re-save replaces the store, so hits
    // are the campaign's own, not doubled.
    supervise::TriageStore store((dir.path() / "crashes").string());
    ASSERT_TRUE(store.open()) << store.error();
    ASSERT_EQ(store.records().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const supervise::TriageRecord& record = store.records()[i];
      EXPECT_EQ(record.kind, expected[i]->kind);
      EXPECT_EQ(record.site, expected[i]->site);
      EXPECT_EQ(record.trace_hash, expected[i]->trace_hash);
      EXPECT_EQ(record.hits, expected[i]->hits);
      EXPECT_EQ(record.first_execution, expected[i]->first_execution);
      EXPECT_EQ(record.detail, expected[i]->detail);
      EXPECT_EQ(record.ingests, 1u);
      EXPECT_EQ(store.load_reproducer(record.bucket), expected[i]->reproducer);
    }
  }
}

// --------------------------------------------------------------- TriageStore

TEST(TriageStore, BucketIdEncodesKindSiteAndTrace) {
  EXPECT_EQ(supervise::triage_bucket_id(san::FaultKind::Segv, 0x12, 0xab),
            "segv-00000012-00000000000000ab");
  EXPECT_EQ(supervise::triage_bucket_id(san::FaultKind::HeapUseAfterFree,
                                        0xdeadbeef, 0),
            "heap-uaf-deadbeef-0000000000000000");
}

TEST(TriageStore, IngestVerifiesMinimizesAndPersistsRealCrashes) {
  const std::vector<const fuzz::CrashRecord*> crashes =
      campaign().fuzzer.crashes().records();
  ASSERT_GT(crashes.size(), 0u) << "the seeded campaign must crash";

  const ScopedTempDir dir("icsfuzz-triage");
  supervise::TriageStore store(dir.str());
  ASSERT_TRUE(store.open());
  EXPECT_TRUE(store.records().empty());

  for (const fuzz::CrashRecord* crash : crashes) {
    proto::Cs101Server replay_target;
    const supervise::TriageStore::IngestOutcome outcome =
        store.ingest(*crash, &replay_target, /*minimize=*/true);
    EXPECT_TRUE(outcome.is_new);
    EXPECT_TRUE(outcome.reproduced)
        << "bucket " << outcome.bucket << ": reproducer must replay";
    EXPECT_FALSE(outcome.verify_failed);

    const supervise::TriageRecord* record = store.find(outcome.bucket);
    ASSERT_NE(record, nullptr);
    EXPECT_TRUE(record->verified);
    EXPECT_EQ(record->ingests, 1u);
    EXPECT_EQ(record->hits, crash->hits);
    EXPECT_EQ(record->first_execution, crash->first_execution);
    EXPECT_EQ(record->original_bytes, crash->reproducer.size());
    EXPECT_LE(record->reproducer_bytes, record->original_bytes);

    // The persisted (possibly tmin-shrunk) reproducer still raises the
    // bucket's own fault.
    const std::optional<Bytes> reproducer =
        store.load_reproducer(outcome.bucket);
    ASSERT_TRUE(reproducer.has_value());
    EXPECT_EQ(reproducer->size(), record->reproducer_bytes);
    proto::Cs101Server verify_target;
    const distill::CrashReplay replay =
        distill::replay_crash(verify_target, *reproducer);
    EXPECT_TRUE(replay.reproduced);
    bool same_fault = false;
    for (const san::FaultReport& fault : replay.faults) {
      same_fault |= fault.kind == record->kind && fault.site == record->site;
    }
    EXPECT_TRUE(same_fault) << "bucket " << outcome.bucket;
  }
  EXPECT_EQ(store.records().size(), crashes.size());

  // Reopen from disk: the journal replays into the identical index.
  supervise::TriageStore reopened(dir.str());
  ASSERT_TRUE(reopened.open());
  ASSERT_EQ(reopened.records().size(), store.records().size());
  for (std::size_t i = 0; i < store.records().size(); ++i) {
    const supervise::TriageRecord& a = reopened.records()[i];
    const supervise::TriageRecord& b = store.records()[i];
    EXPECT_EQ(a.bucket, b.bucket);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.site, b.site);
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.first_execution, b.first_execution);
    EXPECT_EQ(a.ingests, b.ingests);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.minimized, b.minimized);
    EXPECT_EQ(a.reproducer_bytes, b.reproducer_bytes);
    EXPECT_EQ(a.original_bytes, b.original_bytes);
  }

  // Re-ingest of the same campaign: hits accumulate, no new buckets, and a
  // minimized reproducer is never replaced by the bigger duplicate.
  for (const fuzz::CrashRecord* crash : crashes) {
    const supervise::TriageRecord before =
        *reopened.find(supervise::triage_bucket_id(crash->kind, crash->site,
                                                   crash->trace_hash));
    const supervise::TriageStore::IngestOutcome outcome =
        reopened.ingest(*crash, nullptr);
    EXPECT_FALSE(outcome.is_new);
    const supervise::TriageRecord* after = reopened.find(outcome.bucket);
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->ingests, 2u);
    EXPECT_EQ(after->hits, 2 * crash->hits);
    EXPECT_EQ(after->first_execution, before.first_execution);
    EXPECT_EQ(after->reproducer_bytes, before.reproducer_bytes);
    EXPECT_EQ(after->minimized, before.minimized);
  }
  EXPECT_EQ(reopened.records().size(), crashes.size());

  // reverify against a fresh target confirms the stored reproducers again.
  for (const supervise::TriageRecord& record : reopened.records()) {
    proto::Cs101Server reverify_target;
    const std::optional<supervise::TriageStore::IngestOutcome> outcome =
        reopened.reverify(record.bucket, reverify_target);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_TRUE(outcome->reproduced);
  }
}

TEST(TriageStore, TornTrailingJournalLineIsDropped) {
  const ScopedTempDir dir("icsfuzz-triage-torn");
  supervise::TriageStore store(dir.str());
  ASSERT_TRUE(store.open());

  fuzz::CrashRecord crash;
  crash.kind = san::FaultKind::Segv;
  crash.site = 0x1234;
  crash.detail = "synthetic";
  crash.reproducer = Bytes{1, 2, 3};
  crash.hits = 1;
  crash.first_execution = 10;
  crash.trace_hash = 0x55;
  store.ingest(crash, nullptr);

  // A killed writer leaves an unterminated fragment at the tail.
  {
    std::ofstream journal(dir.path() / "index.jsonl",
                          std::ios::binary | std::ios::app);
    journal << "{\"bucket\":\"segv-00005678";
  }
  supervise::TriageStore reopened(dir.str());
  ASSERT_TRUE(reopened.open());
  ASSERT_EQ(reopened.records().size(), 1u);
  EXPECT_EQ(reopened.records()[0].bucket,
            supervise::triage_bucket_id(crash.kind, crash.site,
                                        crash.trace_hash));

  // The next append lands on its own line: a fresh ingest after the torn
  // write is not corrupted by the fragment.
  fuzz::CrashRecord other = crash;
  other.site = 0x9999;
  reopened.ingest(other, nullptr);
  supervise::TriageStore third(dir.str());
  ASSERT_TRUE(third.open());
  EXPECT_EQ(third.records().size(), 2u);
}

TEST(TriageStore, IndexLineWhoseBucketItsFieldsDoNotDeriveIsDropped) {
  // A bucket id becomes the file name repro/<bucket>.bin, so an index line
  // naming a bucket its kind, site and trace hash do not derive is dropped
  // like a torn one — "../../outside" must not let open, load_reproducer
  // or reverify touch a file outside the store — and so is a line whose
  // hex fields are garbage, which must not read as 0.
  const ScopedTempDir root("icsfuzz-triage-traversal");
  const fs::path store_dir = root.path() / "a" / "store";
  const fs::path outside = root.path() / "a" / "outside.bin";
  supervise::TriageStore store(store_dir.string());
  ASSERT_TRUE(store.open());
  fuzz::CrashRecord crash;
  crash.kind = san::FaultKind::Segv;
  crash.site = 0x1234;
  crash.detail = "synthetic";
  crash.reproducer = Bytes{1, 2, 3};
  crash.hits = 1;
  crash.first_execution = 10;
  crash.trace_hash = 0x55;
  store.ingest(crash, nullptr);
  { std::ofstream(outside, std::ios::binary) << "outside"; }

  const std::string kind = san::to_slug(san::FaultKind::Segv);
  const std::string zero_bucket =
      supervise::triage_bucket_id(san::FaultKind::Segv, 0, 0);
  {
    std::ofstream journal(store_dir / "index.jsonl",
                          std::ios::binary | std::ios::app);
    journal << "{\"bucket\":\"../../outside\",\"kind\":\"" << kind
            << "\",\"site\":\"00001234\",\"trace_hash\":"
               "\"0000000000000055\",\"hits\":1,\"first_execution\":1}\n";
    journal << "{\"bucket\":\"" << zero_bucket << "\",\"kind\":\"" << kind
            << "\",\"site\":\"zz\",\"trace_hash\":\"0\",\"hits\":1,"
               "\"first_execution\":1}\n";
    journal << "{\"bucket\":\"" << zero_bucket << "\",\"kind\":\"" << kind
            << "\",\"site\":\"0\",\"trace_hash\":\"-0\",\"hits\":1,"
               "\"first_execution\":1}\n";
  }

  supervise::TriageStore reopened(store_dir.string());
  ASSERT_TRUE(reopened.open());
  ASSERT_EQ(reopened.records().size(), 1u);
  EXPECT_EQ(reopened.records()[0].bucket,
            supervise::triage_bucket_id(crash.kind, crash.site,
                                        crash.trace_hash));
  EXPECT_EQ(reopened.find("../../outside"), nullptr);
  EXPECT_EQ(reopened.find(zero_bucket), nullptr);
  EXPECT_FALSE(reopened.load_reproducer("../../outside").has_value());
  proto::Cs101Server target;
  EXPECT_FALSE(reopened.reverify("../../outside", target).has_value());

  // Nothing outside the store was read into a record or written.
  std::ifstream in(outside, std::ios::binary);
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "outside");
  std::vector<std::string> entries;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(root.path() / "a")) {
    entries.push_back(entry.path().filename().string());
  }
  std::sort(entries.begin(), entries.end());
  EXPECT_EQ(entries, (std::vector<std::string>{"outside.bin", "store"}));
}

TEST(TriageStore, MissingStoreIsEmptyAndReverifyOfUnknownBucketIsNullopt) {
  const ScopedTempDir dir("icsfuzz-triage-empty");
  supervise::TriageStore store((dir.path() / "nonexistent").string());
  EXPECT_TRUE(store.open());
  EXPECT_TRUE(store.records().empty());
  EXPECT_EQ(store.find("segv-00000000-0000000000000000"), nullptr);
  proto::Cs101Server target;
  EXPECT_FALSE(store.reverify("no-such-bucket", target).has_value());
  EXPECT_FALSE(store.load_reproducer("no-such-bucket").has_value());
}

TEST(TriageStore, FailedWriteIsReportedAndLeavesTheIndexUnchanged) {
  // A store rooted under a regular file cannot be created (tests run as
  // root, so mode bits would not make a directory unwritable).
  const ScopedTempDir dir("icsfuzz-triage-unwritable");
  { std::ofstream(dir.path() / "file") << "not a directory"; }
  supervise::TriageStore store((dir.path() / "file" / "store").string());
  ASSERT_TRUE(store.open());

  const fuzz::CrashRecord crash = synthetic_crashes().front();
  const supervise::TriageStore::IngestOutcome outcome =
      store.ingest(crash, nullptr);
  EXPECT_FALSE(outcome.persisted);
  EXPECT_FALSE(store.error().empty());
  EXPECT_TRUE(store.records().empty());

  // A writable store reports success.
  supervise::TriageStore writable((dir.path() / "store").string());
  EXPECT_TRUE(writable.ingest(crash, nullptr).persisted);
  EXPECT_EQ(writable.records().size(), 1u);
}

TEST(TriageStore, ReproducerSideFilesAreWholeAfterIngestAndMinimize) {
  // Side files are written to a tmp file and renamed over the bucket's
  // file: after ingest and minimize, repro/ holds exactly one whole
  // <bucket>.bin per bucket, each of the size its record names.
  const std::vector<const fuzz::CrashRecord*> crashes =
      campaign().fuzzer.crashes().records();
  ASSERT_GT(crashes.size(), 0u);
  const ScopedTempDir dir("icsfuzz-triage-atomic");
  supervise::TriageStore store(dir.str());
  ASSERT_TRUE(store.open());
  for (const fuzz::CrashRecord* crash : crashes) {
    // Trailing padding the target ignores, so minimize has bytes to drop.
    fuzz::CrashRecord padded = *crash;
    padded.reproducer.insert(padded.reproducer.end(), 16, 0x00);
    ASSERT_TRUE(store.ingest(padded, nullptr).persisted) << store.error();
  }
  bool shrunk = false;
  for (const supervise::TriageRecord& record : store.records()) {
    proto::Cs101Server target;
    const auto outcome = store.reverify(record.bucket, target, true);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_TRUE(outcome->persisted);
    shrunk |= outcome->minimized;
  }
  EXPECT_TRUE(shrunk) << "minimize must rewrite the side files";

  supervise::TriageStore reopened(dir.str());
  ASSERT_TRUE(reopened.open());
  std::vector<std::string> want;
  for (const supervise::TriageRecord& record : reopened.records()) {
    want.push_back(record.bucket + ".bin");
    EXPECT_EQ(fs::file_size(dir.path() / "repro" / (record.bucket + ".bin")),
              record.reproducer_bytes)
        << record.bucket;
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(files_under(dir.path() / "repro"), want);
}

}  // namespace
}  // namespace icsfuzz
