// Self-fuzzing harness for the checkpoint v5 log reader
// (supervise/checkpoint).
//
// A checkpoint log is the supervisor's resume point, read back after a
// crash, a power loss mid-append or a hand edit, so parse_checkpoint()
// must survive any bytes at all. The pool starts with logs a two-worker
// campaign's CheckpointWriter left behind: a bare base, and a base plus one,
// two and three segments. The campaign's small dedup capacity rotates the
// generations while it runs, and a rotation makes the writer start a fresh
// base, so one seed's segments follow a post-rotation base that carries
// both generations.
//
// Two parts:
//
//   * Truncation at every record boundary and one byte either side of it:
//     each cut must load as exactly the full capture taken at the save
//     that its last whole record ends (and be rejected while the base is
//     not whole).
//   * Mutation rounds, AFL-style with the fuzzer's own byte mutators (the
//     operators Strategy::ByteMutation stacks): 1-8 mutations on the whole
//     log, or on one record's payload, or one u64 of a payload overwritten
//     with a boundary value. A payload edit reseals the record's length
//     and CRC, so it reaches the field checks rather than stopping at the
//     checksum. Some rounds also drop, repeat or splice in whole records or
//     cut the log anywhere, and accepted results seed later rounds. For
//     every input: parse_checkpoint must return (ASan in the CI
//     fault-stress lane catches what a crash would be); the input must
//     load exactly as its intact prefix of whole records (those before the
//     first torn or mis-checksummed one) loads; and when accepted,
//     serialise -> parse -> serialise must be a fixed point.
//
// The budget is fixed; the seed is fixed too unless ICSFUZZ_STRESS_SEED is
// set, which the CI fault-stress lane does with a fresh value per round.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mutation/mutator.hpp"
#include "parallel/seed_exchange.hpp"
#include "parallel/worker.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "supervise/checkpoint.hpp"
#include "tests/test_support.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

namespace fs = std::filesystem;
using test::kCheckpointFrame;
using test::kCheckpointHeader;
using test::loaded_image;

constexpr int kRounds = 1000;
constexpr std::size_t kPoolCap = 64;

/// FNV-1a of ICSFUZZ_STRESS_SEED, or a fixed seed when it is unset.
std::uint64_t harness_seed() {
  const char* stress = std::getenv("ICSFUZZ_STRESS_SEED");
  if (stress == nullptr) return 0xC4EC6001;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = stress; *c != '\0'; ++c) {
    hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
  }
  return hash;
}

std::string_view as_text(const Bytes& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::vector<test::LogRecord> intact_records(const Bytes& log) {
  return test::intact_records(as_text(log));
}

/// `payload` framed as a whole record with a matching length and CRC.
Bytes sealed_record(const Bytes& payload) {
  Bytes record(kCheckpointFrame);
  const std::uint64_t length = payload.size();
  const std::uint32_t crc = crc32(ByteSpan(payload));
  std::memcpy(record.data(), &length, 8);
  std::memcpy(record.data() + 8, &crc, 4);
  record.insert(record.end(), payload.begin(), payload.end());
  return record;
}

struct SeedLog {
  Bytes log;
  /// Canonical image of the full capture at each record's save.
  std::vector<std::string> saves;
  bool post_rotation = false;
};

/// Logs of a two-worker Peach* campaign over libmodbus (syncing every 64
/// iterations, so both workers hold imports, crashes, retained seeds and a
/// cracked corpus), written through a CheckpointWriter every 40 iterations
/// with the supervisor's base-or-segment rule. dedup_capacity = 512 rotates
/// a worker's generations every 256 fresh packets.
std::vector<SeedLog> campaign_logs() {
  const model::DataModelSet models = pits::modbus_pit();
  constexpr std::uint64_t kSeed = 11;
  constexpr std::uint64_t kTotal = 4000;
  constexpr std::uint64_t kChunk = 100;
  par::SeedExchange exchange;
  std::vector<std::unique_ptr<par::Worker>> workers;
  for (std::size_t id = 0; id < 2; ++id) {
    par::WorkerConfig config;
    config.id = id;
    config.worker_count = 2;
    config.sync_interval = 64;
    config.fuzzer.rng_seed = par::worker_seed(kSeed, id);
    config.fuzzer.stats_interval = 100;
    config.fuzzer.dedup_capacity = 4096;
    config.fuzzer.corpus.per_rule_cap = 2;
    config.fuzzer.telemetry = telem::Sink();
    workers.push_back(std::make_unique<par::Worker>(
        config, std::make_unique<proto::ModbusServer>(), models, exchange));
    workers.back()->arm_dedup_journal(kChunk);
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("icsfuzz-selffuzz-ckpt-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "campaign.ckpt").string();
  supervise::CheckpointWriter writer(path);

  // The first log of each shape: 0-3 segments, and 1+ segments after a
  // rotation.
  std::optional<SeedLog> by_segments[4];
  std::optional<SeedLog> post_rotation;
  std::vector<std::string> saves;
  bool rotated_base = false;
  for (std::uint64_t done = kChunk; done < kTotal; done += kChunk) {
    bool delta = writer.accepts_segment();
    for (const auto& worker : workers) {
      worker->run_range(done - kChunk, done, kTotal);
      delta = delta && worker->fuzzer().dedup().journal_valid();
    }
    supervise::CampaignCheckpoint saved;
    saved.completed_iterations = done;
    saved.base_seed = kSeed;
    saved.iterations_per_worker = kTotal;
    saved.sync_interval = 64;
    supervise::CampaignCheckpoint full = saved;
    for (const auto& worker : workers) {
      saved.workers.push_back(worker->capture_state(delta));
      full.workers.push_back(worker->capture_state());
      worker->arm_dedup_journal(kChunk);
    }
    if (writer.save(saved).has_value()) break;
    if (!delta) {
      saves.clear();
      rotated_base = false;
      for (const par::WorkerState& worker : full.workers) {
        rotated_base = rotated_base || !worker.fuzzer.dedup_previous.empty();
      }
    }
    saves.push_back(supervise::serialize_checkpoint(full));
    std::ifstream in(path, std::ios::binary);
    SeedLog seed{Bytes(std::istreambuf_iterator<char>(in), {}), saves,
                 rotated_base};
    const std::size_t segments = saves.size() - 1;
    if (segments < 4 && !by_segments[segments]) by_segments[segments] = seed;
    if (rotated_base && segments > 0 && !post_rotation) post_rotation = seed;
  }
  fs::remove_all(dir);

  std::vector<SeedLog> logs;
  for (std::optional<SeedLog>& seed : by_segments) {
    if (seed) logs.push_back(std::move(*seed));
  }
  if (post_rotation) logs.push_back(std::move(*post_rotation));
  return logs;
}

TEST(SelfFuzzCheckpoint, EveryCutAtARecordBoundaryLoadsTheSaveItEndsWith) {
  const std::vector<SeedLog> seeds = campaign_logs();
  ASSERT_EQ(seeds.size(), 5u) << "a seed shape is missing";
  ASSERT_TRUE(seeds.back().post_rotation);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const SeedLog& seed = seeds[s];
    const std::vector<test::LogRecord> records = intact_records(seed.log);
    ASSERT_EQ(records.size(), seed.saves.size());
    ASSERT_EQ(records.back().end, seed.log.size());
    std::vector<std::size_t> boundaries{kCheckpointHeader.size()};
    for (const test::LogRecord& record : records) boundaries.push_back(record.end);
    for (const std::size_t boundary : boundaries) {
      for (const std::size_t cut : {boundary - 1, boundary, boundary + 1}) {
        if (cut > seed.log.size()) continue;
        std::size_t whole = 0;
        while (whole < records.size() && records[whole].end <= cut) ++whole;
        const std::string expected = whole == 0 ? "" : seed.saves[whole - 1];
        ASSERT_TRUE(loaded_image(as_text(seed.log).substr(0, cut)) ==
                    expected)
            << "seed " << s << ", cut at " << cut << " keeps " << whole
            << " whole records";
      }
    }
  }
}

/// One harness input: a mutation stack on the whole log, on one record's
/// payload (resealed), or one payload u64 set to a boundary value
/// (resealed), then sometimes a record dropped, repeated or spliced in
/// from another log, or a cut anywhere.
Bytes mutate_log(const Bytes& seed, const std::vector<Bytes>& pool,
                 const mutation::MutatorSuite& mutators, Rng& rng) {
  Bytes log = seed;
  const std::vector<test::LogRecord> records = intact_records(log);
  const std::uint64_t stack = rng.between(1, 8);
  const std::uint64_t mode = records.empty() ? 0 : rng.below(3);
  if (mode == 0) {
    for (std::uint64_t i = 0; i < stack; ++i) {
      mutators.mutate_in_place(log, rng);
    }
  } else {
    const test::LogRecord record = rng.pick(records);
    Bytes payload(log.begin() + static_cast<std::ptrdiff_t>(record.begin +
                                                            kCheckpointFrame),
                  log.begin() + static_cast<std::ptrdiff_t>(record.end));
    if (mode == 1) {
      for (std::uint64_t i = 0; i < stack; ++i) {
        mutators.mutate_in_place(payload, rng);
      }
    } else if (payload.size() >= 8) {
      static constexpr std::uint64_t kBoundaries[] = {
          0, 1, 2, 7, 8, 255, 65535, 65536, 1ULL << 32, ~0ULL};
      std::uint64_t value = kBoundaries[rng.index(std::size(kBoundaries))];
      if (rng.chance(1, 4)) value = rng.next_u64();
      std::memcpy(payload.data() + rng.index(payload.size() - 7), &value, 8);
    }
    const Bytes sealed = sealed_record(payload);
    Bytes rebuilt(log.begin(),
                  log.begin() + static_cast<std::ptrdiff_t>(record.begin));
    rebuilt.insert(rebuilt.end(), sealed.begin(), sealed.end());
    rebuilt.insert(rebuilt.end(),
                   log.begin() + static_cast<std::ptrdiff_t>(record.end),
                   log.end());
    log = std::move(rebuilt);
  }
  const std::vector<test::LogRecord> now = intact_records(log);
  switch (rng.below(8)) {
    case 0:  // torn write: the log stops anywhere
      log.resize(rng.below(log.size() + 1));
      break;
    case 1:  // a record dropped
      if (!now.empty()) {
        const test::LogRecord record = rng.pick(now);
        log.erase(log.begin() + static_cast<std::ptrdiff_t>(record.begin),
                  log.begin() + static_cast<std::ptrdiff_t>(record.end));
      }
      break;
    case 2: {  // a record of another log (or this one) after a record
      const Bytes& donor = rng.pick(pool);
      const std::vector<test::LogRecord> donor_records = intact_records(donor);
      if (!donor_records.empty() && !now.empty()) {
        const test::LogRecord from = rng.pick(donor_records);
        const std::size_t at = rng.pick(now).end;
        log.insert(log.begin() + static_cast<std::ptrdiff_t>(at),
                   donor.begin() + static_cast<std::ptrdiff_t>(from.begin),
                   donor.begin() + static_cast<std::ptrdiff_t>(from.end));
      }
      break;
    }
    default:
      break;
  }
  return log;
}

TEST(SelfFuzzCheckpoint, MutatedLogsLoadAsTheirIntactPrefixAtAFixedPoint) {
  const std::uint64_t seed = harness_seed();
  const mutation::MutatorSuite mutators;
  Rng rng(seed);
  std::vector<Bytes> pool;
  for (SeedLog& log : campaign_logs()) pool.push_back(std::move(log.log));
  ASSERT_FALSE(pool.empty());

  std::size_t accepted = 0;
  std::size_t changed = 0;  // accepted, and not the load of an unmutated log
  std::vector<std::string> seed_images;
  for (const Bytes& log : pool) seed_images.push_back(loaded_image(as_text(log)));
  for (int round = 0; round < kRounds; ++round) {
    const std::string label =
        "seed=" + std::to_string(seed) + " round=" + std::to_string(round);
    const Bytes input = mutate_log(rng.pick(pool), pool, mutators, rng);
    const std::string image = loaded_image(as_text(input));
    const std::vector<test::LogRecord> records = intact_records(input);
    const std::size_t prefix =
        records.empty() ? 0 : records.back().end;
    ASSERT_TRUE(image == loaded_image(as_text(input).substr(0, prefix)))
        << label << ": the log does not load as its intact prefix";
    if (image.empty()) continue;
    ++accepted;
    bool fresh = true;
    for (const std::string& known : seed_images) fresh = fresh && known != image;
    changed += fresh ? 1 : 0;
    // Accepted inputs seed later rounds, which then start near the
    // reader's accepting edge instead of past its first bad field.
    if (rng.chance(1, 2) && pool.size() < kPoolCap) pool.push_back(input);
    const std::optional<supervise::CampaignCheckpoint> again =
        supervise::parse_checkpoint(image);
    ASSERT_TRUE(again.has_value())
        << label << ": an accepted log re-serialised into a rejected one";
    ASSERT_TRUE(supervise::serialize_checkpoint(*again) == image)
        << label << ": serialise -> parse -> serialise is not a fixed point";
  }
  // The mutators must reach both sides: inputs the reader rejects, and
  // inputs it accepts with a mutated field in an intact record.
  EXPECT_LT(accepted, static_cast<std::size_t>(kRounds));
  EXPECT_GT(changed, static_cast<std::size_t>(kRounds / 20));
}

}  // namespace
}  // namespace icsfuzz
