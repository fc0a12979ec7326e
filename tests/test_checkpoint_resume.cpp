// Crash-safe checkpoint/resume coverage (src/supervise/checkpoint.hpp,
// supervisor.hpp).
//
// The load-bearing property is the differential oracle: a campaign that is
// checkpointed, killed, and resumed must finish bit-for-bit identical to
// one that was never interrupted. The suite builds up to it in layers —
// worker state hand-off across fresh Worker objects, the checkpoint format
// round-trip, malformed-input rejection, the durable file cycle, the log of
// a base plus appended segments and its torn-tail rule — and then runs the
// real thing: a forked CampaignSupervisor SIGKILLed mid-campaign and
// resumed in the parent against an uninterrupted reference. A W=1 campaign is exactly reproducible (worker.hpp), so the
// oracle gates on one worker; multi-worker supervision is covered by
// test_supervisor.cpp with interleaving-tolerant assertions.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fuzzer/fuzzer.hpp"
#include "parallel/parallel_campaign.hpp"
#include "parallel/seed_exchange.hpp"
#include "parallel/worker.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "supervise/checkpoint.hpp"
#include "supervise/supervisor.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/test_support.hpp"
#include "util/checksum.hpp"

namespace icsfuzz {
namespace {

namespace fs = std::filesystem;

fuzz::FuzzerConfig small_config(std::uint64_t seed) {
  fuzz::FuzzerConfig config;
  config.rng_seed = seed;
  config.stats_interval = 200;
  return config;
}

par::WorkerConfig solo_worker_config(std::uint64_t seed,
                                     std::uint64_t sync_interval) {
  par::WorkerConfig config;
  config.id = 0;
  config.worker_count = 1;
  config.sync_interval = sync_interval;
  config.fuzzer = small_config(par::worker_seed(seed, 0));
  return config;
}

std::unique_ptr<par::Worker> make_solo_worker(const model::DataModelSet& models,
                                              par::SeedExchange& exchange,
                                              std::uint64_t seed,
                                              std::uint64_t sync_interval) {
  return std::make_unique<par::Worker>(solo_worker_config(seed, sync_interval),
                                       std::make_unique<proto::ModbusServer>(),
                                       models, exchange);
}

/// Field-by-field trajectory comparison — identical campaigns, not merely
/// similar ones.
void expect_same_trajectory(const fuzz::Fuzzer& actual,
                            const fuzz::Fuzzer& expected) {
  EXPECT_EQ(actual.path_count(), expected.path_count());
  EXPECT_EQ(actual.executor().edge_count(), expected.executor().edge_count());
  EXPECT_EQ(actual.executor().executions(), expected.executor().executions());
  EXPECT_EQ(actual.crashes().unique_count(), expected.crashes().unique_count());
  EXPECT_EQ(actual.corpus().size(), expected.corpus().size());
  ASSERT_EQ(actual.retained_seeds().size(), expected.retained_seeds().size());
  for (std::size_t i = 0; i < actual.retained_seeds().size(); ++i) {
    EXPECT_EQ(actual.retained_seeds()[i].bytes,
              expected.retained_seeds()[i].bytes)
        << "retained seed " << i;
  }
  ASSERT_EQ(actual.stats().checkpoints().size(),
            expected.stats().checkpoints().size());
  for (std::size_t i = 0; i < actual.stats().checkpoints().size(); ++i) {
    EXPECT_EQ(actual.stats().checkpoints()[i].paths,
              expected.stats().checkpoints()[i].paths)
        << "stats checkpoint " << i;
    EXPECT_EQ(actual.stats().checkpoints()[i].executions,
              expected.stats().checkpoints()[i].executions)
        << "stats checkpoint " << i;
  }
  const std::vector<const fuzz::CrashRecord*> actual_crashes =
      actual.crashes().records();
  const std::vector<const fuzz::CrashRecord*> expected_crashes =
      expected.crashes().records();
  ASSERT_EQ(actual_crashes.size(), expected_crashes.size());
  for (std::size_t i = 0; i < actual_crashes.size(); ++i) {
    EXPECT_EQ(actual_crashes[i]->kind, expected_crashes[i]->kind);
    EXPECT_EQ(actual_crashes[i]->site, expected_crashes[i]->site);
    EXPECT_EQ(actual_crashes[i]->hits, expected_crashes[i]->hits);
    EXPECT_EQ(actual_crashes[i]->first_execution,
              expected_crashes[i]->first_execution);
    EXPECT_EQ(actual_crashes[i]->trace_hash, expected_crashes[i]->trace_hash);
    EXPECT_EQ(actual_crashes[i]->reproducer, expected_crashes[i]->reproducer);
  }
}

/// A per-test scratch directory under the system temp root.
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

 private:
  fs::path path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

using test::kCheckpointFrame;
using test::loaded_image;

/// Offsets at which the whole records of a v5 log end.
std::vector<std::size_t> record_ends(std::string_view log) {
  std::vector<std::size_t> ends;
  for (const test::LogRecord& record : test::intact_records(log)) {
    ends.push_back(record.end);
  }
  return ends;
}

/// Kind byte of the record starting at `start`.
char record_kind(std::string_view log, std::size_t start) {
  return log[start + kCheckpointFrame];
}

// ------------------------------------------------------ worker state hand-off

TEST(CheckpointResume, WorkerStateHandoffContinuesBitForBit) {
  const model::DataModelSet models = pits::modbus_pit();
  constexpr std::uint64_t kTotal = 2000;
  constexpr std::uint64_t kSeed = 4242;
  // A chunk boundary deliberately NOT aligned to the sync interval: the
  // absolute-index sync schedule must make any split invisible.
  constexpr std::uint64_t kSplit = 777;

  // Uninterrupted reference.
  par::SeedExchange reference_exchange;
  std::unique_ptr<par::Worker> reference =
      make_solo_worker(models, reference_exchange, kSeed, 256);
  reference->run_range(0, kTotal, kTotal);

  // First half on worker A, state captured between iterations.
  par::SeedExchange first_exchange;
  std::unique_ptr<par::Worker> first =
      make_solo_worker(models, first_exchange, kSeed, 256);
  first->run_range(0, kSplit, kTotal);
  const par::WorkerState state = first->capture_state();
  first.reset();  // the original worker is gone — as after a process death

  // Second half on a FRESH worker against a FRESH exchange (exactly what a
  // resumed process has: the exchange is rebuilt, never checkpointed).
  par::SeedExchange resumed_exchange;
  std::unique_ptr<par::Worker> resumed =
      make_solo_worker(models, resumed_exchange, kSeed, 256);
  resumed->restore_state(state);
  resumed->run_range(kSplit, kTotal, kTotal);

  expect_same_trajectory(resumed->fuzzer(), reference->fuzzer());
  EXPECT_EQ(resumed->progress(), kTotal);
}

TEST(CheckpointResume, ManySmallChunksEqualOneRun) {
  const model::DataModelSet models = pits::modbus_pit();
  constexpr std::uint64_t kTotal = 1500;
  constexpr std::uint64_t kSeed = 99;

  par::SeedExchange reference_exchange;
  std::unique_ptr<par::Worker> reference =
      make_solo_worker(models, reference_exchange, kSeed, 300);
  reference->run_range(0, kTotal, kTotal);

  // Re-execute the campaign as a chain of chunks, round-tripping the state
  // through a fresh worker at every boundary.
  par::SeedExchange exchange;
  std::unique_ptr<par::Worker> worker =
      make_solo_worker(models, exchange, kSeed, 300);
  std::uint64_t completed = 0;
  while (completed < kTotal) {
    const std::uint64_t chunk_end = std::min(kTotal, completed + 250);
    worker->run_range(completed, chunk_end, kTotal);
    completed = chunk_end;
    if (completed < kTotal) {
      const par::WorkerState state = worker->capture_state();
      worker = make_solo_worker(models, exchange, kSeed, 300);
      worker->restore_state(state);
    }
  }

  expect_same_trajectory(worker->fuzzer(), reference->fuzzer());
}

// ------------------------------------------------------- text format round-trip

supervise::CampaignCheckpoint mid_campaign_checkpoint(
    const model::DataModelSet& models) {
  par::SeedExchange exchange;
  std::unique_ptr<par::Worker> worker =
      make_solo_worker(models, exchange, 7, 128);
  worker->run_range(0, 900, 1800);  // crashes + corpus + stats populated

  supervise::CampaignCheckpoint cp;
  cp.completed_iterations = 900;
  cp.base_seed = 7;
  cp.iterations_per_worker = 1800;
  cp.sync_interval = 128;
  cp.workers.push_back(worker->capture_state());
  return cp;
}

TEST(CheckpointFormat, SerializeParseRoundTripIsCanonical) {
  const model::DataModelSet models = pits::modbus_pit();
  const supervise::CampaignCheckpoint cp = mid_campaign_checkpoint(models);

  const std::string text = supervise::serialize_checkpoint(cp);
  ASSERT_FALSE(text.empty());
  const std::optional<supervise::CampaignCheckpoint> parsed =
      supervise::parse_checkpoint(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->completed_iterations, cp.completed_iterations);
  EXPECT_EQ(parsed->base_seed, cp.base_seed);
  EXPECT_EQ(parsed->iterations_per_worker, cp.iterations_per_worker);
  EXPECT_EQ(parsed->sync_interval, cp.sync_interval);
  ASSERT_EQ(parsed->workers.size(), cp.workers.size());
  // Canonical form: re-serializing the parse reproduces the exact bytes.
  EXPECT_EQ(supervise::serialize_checkpoint(*parsed), text);
}

TEST(CheckpointFormat, RestoredWorkerFromParsedTextContinuesBitForBit) {
  const model::DataModelSet models = pits::modbus_pit();
  const supervise::CampaignCheckpoint cp = mid_campaign_checkpoint(models);
  const std::optional<supervise::CampaignCheckpoint> parsed =
      supervise::parse_checkpoint(supervise::serialize_checkpoint(cp));
  ASSERT_TRUE(parsed.has_value());

  par::SeedExchange reference_exchange;
  std::unique_ptr<par::Worker> reference =
      make_solo_worker(models, reference_exchange, 7, 128);
  reference->run_range(0, 1800, 1800);

  par::SeedExchange exchange;
  std::unique_ptr<par::Worker> resumed =
      make_solo_worker(models, exchange, 7, 128);
  resumed->restore_state(parsed->workers[0]);
  resumed->run_range(900, 1800, 1800);

  expect_same_trajectory(resumed->fuzzer(), reference->fuzzer());
}

TEST(CheckpointFormat, DedupTablesRoundTripByteIdenticalPastRotation) {
  // capture -> log -> load -> restore -> capture reproduces the image byte
  // for byte across a base and its segments: the base lists each dedup
  // generation in table order, and each segment's journal replays the
  // inserts since the save before it, so the loaded current table grows
  // through the live one's doublings slot for slot. dedup_capacity = 4096
  // rotates the generations every 2048 fresh packets: the base is taken
  // after a rotation, with both generations populated and the current one
  // rebuilt from empty at 300 hashes, and two segments carry it past its
  // first doubling (at 513 hashes).
  const model::DataModelSet models = pits::modbus_pit();
  fuzz::FuzzerConfig config = small_config(7);
  config.dedup_capacity = 4096;
  proto::ModbusServer original_target;
  fuzz::Fuzzer original(original_target, models, config);
  while (original.dedup().previous_generation().size() == 0 ||
         original.dedup().current_generation().size() < 300) {
    original.step_fast();
  }
  const auto image_of = [](fuzz::FuzzerCheckpoint fuzzer) {
    supervise::CampaignCheckpoint image;
    image.base_seed = 7;
    image.iterations_per_worker = 9000;
    image.sync_interval = 128;
    image.workers.emplace_back();
    image.workers[0].fuzzer = std::move(fuzzer);
    return image;
  };

  const ScopedTempDir dir("icsfuzz-ckpt-dedup");
  const std::string path = (dir.path() / "campaign.ckpt").string();
  supervise::CheckpointWriter writer(path);
  ASSERT_FALSE(writer.save(image_of(original.capture_checkpoint())));
  original.arm_dedup_journal(256);
  for (int segment = 0; segment < 2; ++segment) {
    for (int i = 0; i < 150; ++i) original.step_fast();
    ASSERT_TRUE(original.dedup().journal_valid());
    ASSERT_TRUE(writer.accepts_segment());
    fuzz::FuzzerCheckpoint delta = original.capture_checkpoint(true);
    ASSERT_FALSE(delta.dedup_journal.empty());
    // The zero hash is a legal FNV-1a value and lives outside the slot
    // array; a snapshot lists it first.
    if (segment == 0) delta.dedup_journal.push_back(0);
    original.arm_dedup_journal(256);
    ASSERT_FALSE(writer.save(image_of(std::move(delta))));
  }
  ASSERT_EQ(record_ends(read_file(path)).size(), 3u);
  ASSERT_GT(original.dedup().current_generation().size(), 512u);

  fuzz::FuzzerCheckpoint live = original.capture_checkpoint();
  live.dedup_current.insert(live.dedup_current.begin(), 0);
  const std::optional<supervise::CampaignCheckpoint> loaded =
      supervise::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->workers[0].fuzzer.dedup_current, live.dedup_current);
  EXPECT_EQ(loaded->workers[0].fuzzer.dedup_previous, live.dedup_previous);
  const std::string image = supervise::serialize_checkpoint(image_of(live));
  EXPECT_EQ(supervise::serialize_checkpoint(*loaded), image);

  proto::ModbusServer resumed_target;
  fuzz::Fuzzer resumed(resumed_target, models, config);
  resumed.restore_checkpoint(loaded->workers[0].fuzzer);
  EXPECT_EQ(supervise::serialize_checkpoint(
                image_of(resumed.capture_checkpoint())),
            image);
}

TEST(CheckpointFormat, RejectsMalformedInput) {
  const model::DataModelSet models = pits::modbus_pit();
  const std::string text =
      supervise::serialize_checkpoint(mid_campaign_checkpoint(models));

  EXPECT_FALSE(supervise::parse_checkpoint("").has_value());
  EXPECT_FALSE(supervise::parse_checkpoint("not a checkpoint").has_value());
  EXPECT_FALSE(
      supervise::parse_checkpoint("icsfuzz-checkpoint v999\n").has_value());
  // Truncation anywhere in the token stream (a torn write without the
  // atomic rename) must be rejected, never half-loaded.
  for (const double fraction : {0.1, 0.5, 0.9, 0.999}) {
    const std::string torn =
        text.substr(0, static_cast<std::size_t>(text.size() * fraction));
    EXPECT_FALSE(supervise::parse_checkpoint(torn).has_value())
        << "fraction " << fraction;
  }
  // Corrupting a numeric token breaks the parse, not the process.
  std::string corrupt = text;
  const std::size_t digit = corrupt.find_first_of("0123456789", 32);
  ASSERT_NE(digit, std::string::npos);
  corrupt[digit] = 'z';
  EXPECT_FALSE(supervise::parse_checkpoint(corrupt).has_value());
}

TEST(CheckpointFormat, RejectsAMalformedBaseEvenWithAValidChecksum) {
  const model::DataModelSet models = pits::modbus_pit();
  const supervise::CampaignCheckpoint cp = mid_campaign_checkpoint(models);
  const std::string log = supervise::serialize_checkpoint(cp);
  const std::size_t header = log.find('\n') + 1;
  ASSERT_EQ(record_ends(log), std::vector<std::size_t>{log.size()});
  ASSERT_EQ(record_kind(log, header), 'B');

  // Rewrites the base payload and seals it with a fresh length and CRC, so
  // only the field checks stand between the edit and a resume.
  const auto resealed = [&](const std::function<void(std::string&)>& edit) {
    std::string payload = log.substr(header + kCheckpointFrame);
    edit(payload);
    const std::uint64_t length = payload.size();
    const std::uint32_t crc = crc32(ByteSpan(
        reinterpret_cast<const std::uint8_t*>(payload.data()), length));
    std::string out = log.substr(0, header);
    out.append(reinterpret_cast<const char*>(&length), sizeof length);
    out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
    return out + payload;
  };
  ASSERT_FALSE(loaded_image(resealed([](std::string&) {})).empty());
  // A payload that is not a base, or runs on past its last field.
  EXPECT_TRUE(loaded_image(resealed([](std::string& p) { p[0] = 'S'; }))
                  .empty());
  EXPECT_TRUE(
      loaded_image(resealed([](std::string& p) { p += '\0'; })).empty());
  EXPECT_TRUE(
      loaded_image(resealed([](std::string& p) { p.pop_back(); })).empty());
  // The payload ends with worker 0's dprev list: [u64 count][count x u64].
  // A count past the payload, or one word short of it, is rejected.
  const std::size_t previous = cp.workers[0].fuzzer.dedup_previous.size();
  for (const std::uint64_t count : {previous + 1, std::uint64_t{1} << 60}) {
    EXPECT_TRUE(loaded_image(resealed([&](std::string& p) {
                  std::memcpy(p.data() + p.size() - 8 * previous - 8, &count,
                              8);
                })).empty())
        << count;
  }
  // The checksum is checked before any field.
  std::string flipped = log;
  flipped[header + kCheckpointFrame + 20] ^= 0x01;
  EXPECT_TRUE(loaded_image(flipped).empty());

  // A coverage map that is not cov::kMapSize bytes is rejected: restoring
  // it would read past its end.
  supervise::CampaignCheckpoint short_map = cp;
  short_map.workers[0].fuzzer.coverage.resize(10);
  EXPECT_FALSE(supervise::parse_checkpoint(
                   supervise::serialize_checkpoint(short_map))
                   .has_value());
}

TEST(CheckpointFormat, SaveLoadFileRoundTrip) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-file");
  const std::string path = (dir.path() / "campaign.ckpt").string();

  const supervise::CampaignCheckpoint cp = mid_campaign_checkpoint(models);
  EXPECT_FALSE(supervise::load_checkpoint(path).has_value());  // not yet saved
  ASSERT_FALSE(supervise::save_checkpoint(cp, path).has_value());
  const std::optional<supervise::CampaignCheckpoint> loaded =
      supervise::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(supervise::serialize_checkpoint(*loaded),
            supervise::serialize_checkpoint(cp));
  // No stale temp file left behind by the durable write cycle.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

// ------------------------------------------------- base + segment log

supervise::CampaignCheckpoint solo_image(std::uint64_t completed,
                                         par::WorkerState state) {
  supervise::CampaignCheckpoint image;
  image.completed_iterations = completed;
  image.base_seed = 7;
  image.iterations_per_worker = 4000;
  image.sync_interval = 128;
  image.workers.push_back(std::move(state));
  return image;
}

TEST(CheckpointLog, SegmentsAppendAndEveryWholeRecordPrefixLoadsItsSave) {
  // The writer's policy on a live worker: the first save is a base, later
  // saves append a segment of the journal, and a dedup rotation (every 768
  // fresh packets here) or small state the segments superseded outgrowing
  // the base starts a fresh base. Each whole-record prefix of the log must
  // load as the full capture taken at the save that record ends.
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-log");
  const std::string path = (dir.path() / "campaign.ckpt").string();
  par::SeedExchange exchange;
  par::WorkerConfig config = solo_worker_config(7, 128);
  config.fuzzer.dedup_capacity = 1536;
  const auto worker = std::make_unique<par::Worker>(
      config, std::make_unique<proto::ModbusServer>(), models, exchange);
  constexpr std::uint64_t kChunk = 200;
  supervise::CheckpointWriter writer(path);
  worker->arm_dedup_journal(kChunk);
  std::vector<std::string> saves;  // full image of each record in the log
  std::string previous_log;
  int bases = 0;
  int segments = 0;
  int rotations = 0;
  for (std::uint64_t done = kChunk; done < 4000; done += kChunk) {
    worker->run_range(done - kChunk, done, 4000);
    const bool journal_valid = worker->fuzzer().dedup().journal_valid();
    rotations += writer.accepts_segment() && !journal_valid ? 1 : 0;
    const bool delta = writer.accepts_segment() && journal_valid;
    const supervise::CampaignCheckpoint saved =
        solo_image(done, worker->capture_state(delta));
    const std::string full = supervise::serialize_checkpoint(
        solo_image(done, worker->capture_state()));
    worker->arm_dedup_journal(kChunk);
    ASSERT_FALSE(writer.save(saved).has_value()) << done;

    const std::string log = read_file(path);
    const std::vector<std::size_t> ends = record_ends(log);
    ASSERT_EQ(ends.back(), log.size());
    if (delta) {
      ++segments;
      // Appended: the log before this save is a prefix of the new one.
      ASSERT_EQ(log.compare(0, previous_log.size(), previous_log), 0);
      EXPECT_EQ(record_kind(log, previous_log.size()), 'S');
    } else {
      ++bases;
      saves.clear();
    }
    saves.push_back(full);
    ASSERT_EQ(ends.size(), saves.size()) << done;
    for (std::size_t k = 0; k < ends.size(); ++k) {
      ASSERT_EQ(loaded_image(std::string_view(log).substr(0, ends[k])),
                saves[k])
          << "save at " << done << ", record " << k;
    }
    previous_log = log;
  }
  EXPECT_GE(bases, 2);
  EXPECT_GE(segments, 6);
  EXPECT_GE(rotations, 1);
}

TEST(CheckpointLog, ADamagedRecordDropsItselfAndEverythingAfterIt) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-torn");
  const std::string path = (dir.path() / "campaign.ckpt").string();
  par::SeedExchange exchange;
  std::unique_ptr<par::Worker> worker =
      make_solo_worker(models, exchange, 7, 128);
  supervise::CheckpointWriter writer(path);
  // A base deep enough into the campaign that its dedup tables outweigh
  // the small state of three segments.
  worker->run_range(0, 7700, 9000);
  worker->arm_dedup_journal(100);
  for (std::uint64_t done = 7800; done <= 8100; done += 100) {
    worker->run_range(done - 100, done, 9000);
    ASSERT_TRUE(done == 7800 || writer.accepts_segment());
    const supervise::CampaignCheckpoint saved =
        solo_image(done, worker->capture_state(done != 7800));
    worker->arm_dedup_journal(100);
    ASSERT_FALSE(writer.save(saved).has_value());
  }
  const std::string log = read_file(path);
  const std::vector<std::size_t> ends = record_ends(log);
  ASSERT_EQ(ends.size(), 4u);
  const std::string through_first_segment =
      loaded_image(std::string_view(log).substr(0, ends[1]));

  // A flipped payload byte in the second segment, with the third intact
  // behind it, loads as the base plus the first segment.
  std::string corrupt = log;
  corrupt[ends[1] + kCheckpointFrame + 40] ^= 0x20;
  EXPECT_EQ(loaded_image(corrupt), through_first_segment);
  // So does a length field that runs past the end of the file.
  std::string overlong = log;
  const std::uint64_t huge = ~std::uint64_t{0} - 4;
  std::memcpy(overlong.data() + ends[1], &huge, sizeof huge);
  EXPECT_EQ(loaded_image(overlong), through_first_segment);
  // A base record is never read as a segment of another base.
  const std::string base = log.substr(log.find('\n') + 1,
                                      ends[0] - log.find('\n') - 1);
  EXPECT_EQ(loaded_image(log.substr(0, ends[1]) + base),
            through_first_segment);
  // A damaged base rejects the whole log.
  std::string bad_base = log;
  bad_base[ends[0] - 1] ^= 0x01;
  EXPECT_EQ(loaded_image(bad_base), "");
}

TEST(CheckpointLog, AFailedSaveMakesTheNextSaveABase) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-fail");
  const std::string path = (dir.path() / "campaign.ckpt").string();
  par::SeedExchange exchange;
  std::unique_ptr<par::Worker> worker =
      make_solo_worker(models, exchange, 7, 128);
  supervise::CheckpointWriter writer(path);
  worker->arm_dedup_journal(100);
  worker->run_range(0, 100, 4000);
  ASSERT_FALSE(writer.save(solo_image(100, worker->capture_state())));
  worker->arm_dedup_journal(100);
  worker->run_range(100, 200, 4000);
  ASSERT_TRUE(writer.accepts_segment());

  // The log vanished under the writer: the append fails, says so, and the
  // writer no longer takes a segment.
  fs::remove(path);
  EXPECT_TRUE(writer.save(solo_image(200, worker->capture_state(true)))
                  .has_value());
  EXPECT_FALSE(writer.accepts_segment());
  // A segment offered anyway is refused without touching the disk.
  EXPECT_TRUE(writer.save(solo_image(200, worker->capture_state(true)))
                  .has_value());
  EXPECT_FALSE(fs::exists(path));

  const supervise::CampaignCheckpoint full =
      solo_image(200, worker->capture_state());
  ASSERT_FALSE(writer.save(full).has_value());
  EXPECT_EQ(record_ends(read_file(path)).size(), 1u);
  EXPECT_EQ(loaded_image(read_file(path)),
            supervise::serialize_checkpoint(full));
  EXPECT_TRUE(writer.accepts_segment());
}

TEST(CheckpointLog, AMixedBoundaryIsSkippedAndTheNextSaveIsABase) {
  // Two workers that do not sync, with a dedup table that rotates every 32
  // inserts — one per iteration, so every 32 iterations. Resumed from an
  // image where worker 1's current generation holds 8 more hashes than
  // worker 0's, their rotations fall in different chunks: some boundaries
  // then mix worker 0's delta capture with worker 1's full one, or the
  // other way round. Such a boundary is not written, the next one is
  // written as a base, and the log loads as the finished campaign.
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-mixed");
  const std::string path = (dir.path() / "campaign.ckpt").string();
  constexpr std::uint64_t kChunk = 20;
  constexpr std::uint64_t kTotal = 16 * kChunk;
  constexpr std::uint64_t kSeed = 5;
  fuzz::FuzzerConfig fuzzer = small_config(0);
  fuzzer.dedup_capacity = 64;

  supervise::CampaignCheckpoint image;
  image.completed_iterations = kChunk;
  image.base_seed = kSeed;
  image.iterations_per_worker = kTotal;
  image.sync_interval = 0;
  par::SeedExchange exchange;
  for (std::size_t w = 0; w < 2; ++w) {
    par::WorkerConfig config;
    config.id = w;
    config.worker_count = 2;
    config.sync_interval = 0;
    config.fuzzer = fuzzer;
    config.fuzzer.rng_seed = par::worker_seed(kSeed, w);
    par::Worker worker(config, std::make_unique<proto::ModbusServer>(),
                       models, exchange);
    worker.run_range(0, kChunk, kTotal);
    image.workers.push_back(worker.capture_state());
  }
  for (std::uint64_t h = 1; h <= 8; ++h) {
    image.workers[1].fuzzer.dedup_current.push_back(h);
  }
  ASSERT_FALSE(supervise::save_checkpoint(image, path).has_value());

  telem::Telemetry hub(1 << 14);
  supervise::SupervisorConfig config;
  config.campaign.workers = 2;
  config.campaign.iterations_per_worker = kTotal;
  config.campaign.base_seed = kSeed;
  config.campaign.sync_interval = 0;
  config.campaign.fuzzer = fuzzer;
  config.campaign.fuzzer.telemetry = telem::Sink(&hub, 0);
  config.checkpoint_path = path;
  config.checkpoint_interval = kChunk;
  supervise::CampaignSupervisor supervisor(
      [] { return std::make_unique<proto::ModbusServer>(); }, models, config);
  const supervise::SupervisorResult result = supervisor.run();
  ASSERT_TRUE(result.resumed);
  ASSERT_FALSE(result.interrupted);

  // The supervisor journals each boundary as saved (base or segment) or
  // skipped.
  std::vector<std::string> boundaries;
  for (const telem::Event& event : hub.journal().events()) {
    if (event.type != telem::EventType::kCheckpoint) continue;
    const std::string_view detail = event.detail_view();
    if (detail.starts_with("resumed")) continue;
    boundaries.emplace_back(detail.substr(0, detail.find(" at=")));
  }
  ASSERT_EQ(boundaries.size(), kTotal / kChunk - 1);
  std::size_t skipped = 0;
  std::size_t segments = 0;
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    if (boundaries[i] == "skipped mixed") {
      ++skipped;
      ASSERT_LT(i + 1, boundaries.size()) << "the final boundary is written";
      EXPECT_EQ(boundaries[i + 1], "saved base") << "boundary " << i + 2;
    } else if (boundaries[i] == "saved segment") {
      ++segments;
    }
  }
  EXPECT_GT(skipped, 0u) << "no boundary mixed delta and full captures";
  EXPECT_GT(segments, 0u);
  EXPECT_EQ(result.checkpoints_saved + skipped, boundaries.size());

  const std::optional<supervise::CampaignCheckpoint> loaded =
      supervise::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->completed_iterations, kTotal);
  for (const par::WorkerState& state : loaded->workers) {
    EXPECT_EQ(state.fuzzer.executions, kTotal);
  }
}

// ------------------------------------------------------------ kill -9 oracle

supervise::SupervisorConfig oracle_config(const std::string& checkpoint_path) {
  supervise::SupervisorConfig config;
  config.campaign.workers = 1;
  config.campaign.iterations_per_worker = 12000;
  config.campaign.base_seed = 2026;
  config.campaign.sync_interval = 512;
  config.campaign.fuzzer = small_config(0);  // rng_seed overridden per worker
  config.checkpoint_path = checkpoint_path;
  config.checkpoint_interval = 256;
  return config;
}

/// The tentpole gate: SIGKILL a supervised campaign mid-flight, resume it
/// from the on-disk checkpoint in another process (the parent), and demand
/// the final state be bit-for-bit identical to a never-interrupted run.
TEST(CheckpointResume, SupervisorResumesAfterKillNineBitForBit) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-kill9");
  const std::string checkpoint_path = (dir.path() / "campaign.ckpt").string();
  const fuzz::TargetFactory factory = [] {
    return std::make_unique<proto::ModbusServer>();
  };

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run the campaign until killed. _exit keeps gtest machinery
    // (atexit handlers, result printers) out of the forked copy.
    supervise::CampaignSupervisor victim(factory, models,
                                         oracle_config(checkpoint_path));
    (void)victim.run();
    ::_exit(0);
  }

  // Parent: wait for the first checkpoint to land, then kill without
  // warning. ICSFUZZ_STRESS_SEED (the CI stress lane) varies how deep into
  // the campaign the kill lands, so repeated runs sample different torn
  // states.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!fs::exists(checkpoint_path)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no checkpoint appeared before the kill deadline";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::uint64_t extra_delay_ms = 3;
  if (const char* stress = std::getenv("ICSFUZZ_STRESS_SEED")) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char* c = stress; *c != '\0'; ++c) {
      hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
    }
    extra_delay_ms = hash % 40;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(extra_delay_ms));
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);

  // Resume in THIS process from whatever the child left on disk.
  supervise::CampaignSupervisor resumer(factory, models,
                                        oracle_config(checkpoint_path));
  const supervise::SupervisorResult resumed = resumer.run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed_iterations, 12000u);

  // Uninterrupted reference (plain campaign, same parameters).
  const par::ParallelCampaignResult reference = test::run_parallel_campaign(
      factory, models, oracle_config(checkpoint_path).campaign);

  ASSERT_EQ(resumed.campaign.workers.size(), 1u);
  const par::WorkerReport& actual = resumed.campaign.workers[0];
  const par::WorkerReport& expected = reference.workers[0];
  EXPECT_EQ(actual.executions, expected.executions);
  EXPECT_EQ(actual.paths, expected.paths);
  EXPECT_EQ(actual.edges, expected.edges);
  EXPECT_EQ(actual.unique_crashes, expected.unique_crashes);
  EXPECT_EQ(actual.corpus_size, expected.corpus_size);
  EXPECT_EQ(actual.retained_seeds, expected.retained_seeds);
  ASSERT_EQ(actual.series.size(), expected.series.size());
  for (std::size_t i = 0; i < actual.series.size(); ++i) {
    EXPECT_EQ(actual.series[i].paths, expected.series[i].paths)
        << "series point " << i;
    EXPECT_EQ(actual.series[i].executions, expected.series[i].executions)
        << "series point " << i;
  }
  EXPECT_EQ(resumed.campaign.global_paths, reference.global_paths);
  EXPECT_EQ(resumed.campaign.global_edges, reference.global_edges);

  const std::vector<const fuzz::CrashRecord*> actual_crashes =
      resumed.campaign.pooled_crashes.records();
  const std::vector<const fuzz::CrashRecord*> expected_crashes =
      reference.pooled_crashes.records();
  ASSERT_EQ(actual_crashes.size(), expected_crashes.size());
  for (std::size_t i = 0; i < actual_crashes.size(); ++i) {
    EXPECT_EQ(actual_crashes[i]->kind, expected_crashes[i]->kind);
    EXPECT_EQ(actual_crashes[i]->site, expected_crashes[i]->site);
    EXPECT_EQ(actual_crashes[i]->hits, expected_crashes[i]->hits);
    EXPECT_EQ(actual_crashes[i]->first_execution,
              expected_crashes[i]->first_execution);
    EXPECT_EQ(actual_crashes[i]->trace_hash, expected_crashes[i]->trace_hash);
    EXPECT_EQ(actual_crashes[i]->reproducer, expected_crashes[i]->reproducer);
  }

  // The final chunk's checkpoint marks the campaign complete: a rerun with
  // resume=true is a no-op replaying nothing.
  supervise::CampaignSupervisor rerun(factory, models,
                                      oracle_config(checkpoint_path));
  const supervise::SupervisorResult replay = rerun.run();
  EXPECT_TRUE(replay.resumed);
  EXPECT_EQ(replay.completed_iterations, 12000u);
  EXPECT_EQ(replay.campaign.total_executions, reference.total_executions);
}

TEST(CheckpointResume, TruncatedLastSegmentResumesFromLastWholeRecord) {
  // A kill during an append leaves the last segment cut at any byte. Every
  // such cut must load as the log without that segment, and resuming from
  // it must finish bit-for-bit where the uninterrupted run finished: the
  // final images, wall-clock stamps aside, are byte-identical.
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-cut");
  const std::string checkpoint_path = (dir.path() / "campaign.ckpt").string();
  const fuzz::TargetFactory factory = [] {
    return std::make_unique<proto::ModbusServer>();
  };
  supervise::SupervisorConfig config = oracle_config(checkpoint_path);
  config.campaign.iterations_per_worker = 1200;
  config.checkpoint_interval = 150;
  config.resume = false;
  {
    supervise::CampaignSupervisor uninterrupted(factory, models, config);
    ASSERT_EQ(uninterrupted.run().checkpoints_saved, 8u);
  }
  const auto final_image = [](std::string_view log) {
    std::optional<supervise::CampaignCheckpoint> cp =
        supervise::parse_checkpoint(log);
    if (!cp) return std::string();
    for (par::WorkerState& worker : cp->workers) {
      for (fuzz::Checkpoint& point : worker.fuzzer.stats_points) {
        point.wall_ns = 0;
      }
    }
    return supervise::serialize_checkpoint(*cp);
  };
  const std::string log = read_file(checkpoint_path);
  const std::string expected = final_image(log);
  const std::vector<std::size_t> ends = record_ends(log);
  ASSERT_GE(ends.size(), 2u);
  ASSERT_EQ(ends.back(), log.size());
  const std::size_t last = ends[ends.size() - 2];
  ASSERT_EQ(record_kind(log, last), 'S');

  const std::string intact = loaded_image(std::string_view(log).substr(0, last));
  ASSERT_EQ(supervise::parse_checkpoint(intact)->completed_iterations, 1050u);
  for (std::size_t cut = last; cut < log.size(); ++cut) {
    ASSERT_EQ(loaded_image(std::string_view(log).substr(0, cut)), intact)
        << "cut at byte " << cut - last << " of the last segment";
  }
  // Every cut loads the same image, so a resume from a few of them covers
  // the resume from any.
  config.resume = true;
  for (const std::size_t cut : {last, last + 9, (last + log.size()) / 2,
                                log.size() - 1}) {
    write_file(checkpoint_path, std::string_view(log).substr(0, cut));
    supervise::CampaignSupervisor resumer(factory, models, config);
    const supervise::SupervisorResult resumed = resumer.run();
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.completed_iterations, 1200u);
    EXPECT_EQ(resumed.checkpoints_saved, 1u);
    EXPECT_EQ(final_image(read_file(checkpoint_path)), expected)
        << "resumed from a cut at byte " << cut - last;
  }
}

TEST(CheckpointResume, SupervisorIgnoresCheckpointOfDifferentCampaign) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-ckpt-mismatch");
  const std::string checkpoint_path = (dir.path() / "campaign.ckpt").string();
  const fuzz::TargetFactory factory = [] {
    return std::make_unique<proto::ModbusServer>();
  };

  // Park a checkpoint of a DIFFERENT campaign (other seed) at the path.
  supervise::SupervisorConfig other = oracle_config(checkpoint_path);
  other.campaign.base_seed = 1;
  other.campaign.iterations_per_worker = 600;
  other.checkpoint_interval = 0;  // final checkpoint only
  supervise::CampaignSupervisor first(factory, models, other);
  (void)first.run();
  ASSERT_TRUE(fs::exists(checkpoint_path));

  supervise::SupervisorConfig config = oracle_config(checkpoint_path);
  config.campaign.iterations_per_worker = 600;
  supervise::CampaignSupervisor supervisor(factory, models, config);
  const supervise::SupervisorResult result = supervisor.run();
  EXPECT_FALSE(result.resumed);
  EXPECT_NE(result.notes.find("identity mismatch"), std::string::npos);
  EXPECT_EQ(result.completed_iterations, 600u);
}

}  // namespace
}  // namespace icsfuzz
