// Self-fuzzing harness for the checkpoint v3 parser (supervise/checkpoint).
//
// A checkpoint image is the supervisor's resume point, read back after a
// crash, a power loss or a hand edit, so parse_checkpoint() must survive
// any bytes at all: reject them, or accept them into a checkpoint that
// serialises canonically. This harness drives that property with the
// fuzzer's own byte mutators (the operators Strategy::ByteMutation
// stacks), AFL-style: the pool starts with the images of a small
// two-worker campaign taken at three depths, and each round stacks 1-8
// mutations on a pool entry — on the whole image, whose bulk is the hex
// blobs (coverage map, dedup tables, packets), or on one line of it, so
// the tags, counts and short fields are hit as often — or swaps a few
// digits for digits, sometimes truncating or splicing lines, and keeps
// some accepted results as new seeds.
//
// For every input: parse_checkpoint must return (ASan in the CI
// fault-stress lane catches what a crash would be), and when it accepts
// the input, serialise -> parse -> serialise must be a fixed point: the
// re-serialised image parses again, to the same bytes.
//
// The budget is fixed; the seed is fixed too unless ICSFUZZ_STRESS_SEED is
// set, which the CI fault-stress lane does with a fresh value per round.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mutation/mutator.hpp"
#include "parallel/seed_exchange.hpp"
#include "parallel/worker.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "supervise/checkpoint.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

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

Bytes to_bytes(const std::string& text) { return Bytes(text.begin(), text.end()); }

std::string to_text(const Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

/// Images of a two-worker Peach* campaign over libmodbus (syncing every
/// 64 iterations, so both workers hold imports, crashes, retained seeds
/// and a cracked corpus) after 100, 250 and 400 iterations.
std::vector<Bytes> campaign_images() {
  const model::DataModelSet models = pits::modbus_pit();
  constexpr std::uint64_t kSeed = 11;
  constexpr std::uint64_t kTotal = 400;
  par::SeedExchange exchange;
  std::vector<std::unique_ptr<par::Worker>> workers;
  for (std::size_t id = 0; id < 2; ++id) {
    par::WorkerConfig config;
    config.id = id;
    config.worker_count = 2;
    config.sync_interval = 64;
    config.fuzzer.rng_seed = par::worker_seed(kSeed, id);
    config.fuzzer.stats_interval = 100;
    config.fuzzer.telemetry = telem::Sink();
    workers.push_back(std::make_unique<par::Worker>(
        config, std::make_unique<proto::ModbusServer>(), models, exchange));
  }
  std::vector<Bytes> images;
  std::uint64_t done = 0;
  for (const std::uint64_t cut :
       {std::uint64_t{100}, std::uint64_t{250}, kTotal - 1}) {
    for (const auto& worker : workers) worker->run_range(done, cut, kTotal);
    done = cut;
    supervise::CampaignCheckpoint image;
    image.completed_iterations = done;
    image.base_seed = kSeed;
    image.iterations_per_worker = kTotal;
    image.sync_interval = 64;
    for (const auto& worker : workers) {
      image.workers.push_back(worker->capture_state());
    }
    images.push_back(to_bytes(supervise::serialize_checkpoint(image)));
  }
  return images;
}

/// Byte ranges [begin, end) of the lines of `image` (newline included).
std::vector<std::pair<std::size_t, std::size_t>> lines_of(const Bytes& image) {
  std::vector<std::pair<std::size_t, std::size_t>> lines;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    if (image[i] == '\n') {
      lines.emplace_back(begin, i + 1);
      begin = i + 1;
    }
  }
  if (begin < image.size()) lines.emplace_back(begin, image.size());
  return lines;
}

/// Rewrites 1-4 digits of `image` into other digits of the same kind
/// (decimal for decimal, hex letter for hex letter): values change, the
/// syntax holds, so these inputs reach the parser's semantic checks and
/// the fixed-point property rather than its first syntax error.
void swap_digits(Bytes& image, Rng& rng) {
  const std::uint64_t swaps = rng.between(1, 4);
  for (std::uint64_t i = 0; i < swaps && !image.empty(); ++i) {
    std::uint8_t& c = image[rng.index(image.size())];
    if (c >= '0' && c <= '9') {
      c = static_cast<std::uint8_t>('0' + rng.below(10));
    } else if (c >= 'a' && c <= 'f') {
      c = static_cast<std::uint8_t>('a' + rng.below(6));
    }
  }
}

/// One harness input: a mutation stack on `seed`, applied to the whole
/// image or to one line, or a few digit swaps, plus the occasional
/// line-level splice or cut.
Bytes mutate_image(const Bytes& seed, const std::vector<Bytes>& pool,
                   const mutation::MutatorSuite& mutators, Rng& rng) {
  Bytes image = seed;
  const std::uint64_t stack = rng.between(1, 8);
  const auto lines = lines_of(image);
  const std::uint64_t mode = rng.below(4);
  if (mode == 0) {
    swap_digits(image, rng);
  } else if (lines.empty() || mode == 1) {
    for (std::uint64_t i = 0; i < stack; ++i) {
      mutators.mutate_in_place(image, rng);
    }
  } else {
    const auto [begin, end] = rng.pick(lines);
    Bytes line(image.begin() + static_cast<std::ptrdiff_t>(begin),
               image.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::uint64_t i = 0; i < stack; ++i) {
      mutators.mutate_in_place(line, rng);
    }
    Bytes spliced(image.begin(), image.begin() + static_cast<std::ptrdiff_t>(begin));
    append(spliced, ByteSpan(line));
    spliced.insert(spliced.end(),
                   image.begin() + static_cast<std::ptrdiff_t>(end),
                   image.end());
    image = std::move(spliced);
  }
  switch (rng.below(8)) {
    case 0:  // torn write: the image stops anywhere
      image.resize(rng.below(image.size() + 1));
      break;
    case 1: {  // a line from another image, dropped in anywhere
      const Bytes& donor = rng.pick(pool);
      const auto donor_lines = lines_of(donor);
      const auto target_lines = lines_of(image);
      if (!donor_lines.empty() && !target_lines.empty()) {
        const auto [from, to] = rng.pick(donor_lines);
        const std::size_t at = rng.pick(target_lines).first;
        image.insert(image.begin() + static_cast<std::ptrdiff_t>(at),
                     donor.begin() + static_cast<std::ptrdiff_t>(from),
                     donor.begin() + static_cast<std::ptrdiff_t>(to));
      }
      break;
    }
    default:
      break;
  }
  return image;
}

TEST(SelfFuzzCheckpoint, MutatedImagesNeverCrashAndReserialiseToAFixedPoint) {
  const std::uint64_t seed = harness_seed();
  const mutation::MutatorSuite mutators;
  Rng rng(seed);
  std::vector<Bytes> pool = campaign_images();
  for (const Bytes& image : pool) {
    // The seeds themselves are canonical images.
    const std::optional<supervise::CampaignCheckpoint> parsed =
        supervise::parse_checkpoint(to_text(image));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(supervise::serialize_checkpoint(*parsed), to_text(image));
  }

  std::size_t accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Bytes input = mutate_image(rng.pick(pool), pool, mutators, rng);
    const std::optional<supervise::CampaignCheckpoint> parsed =
        supervise::parse_checkpoint(to_text(input));
    if (!parsed.has_value()) continue;
    ++accepted;
    // Accepted inputs seed later rounds, which then start near the
    // parser's accepting edge instead of past its first syntax error.
    if (rng.chance(1, 2) && pool.size() < kPoolCap) pool.push_back(input);
    const std::string label =
        "seed=" + std::to_string(seed) + " round=" + std::to_string(round);
    const std::string first = supervise::serialize_checkpoint(*parsed);
    const std::optional<supervise::CampaignCheckpoint> again =
        supervise::parse_checkpoint(first);
    ASSERT_TRUE(again.has_value())
        << label << ": an accepted image re-serialised into a rejected one";
    ASSERT_TRUE(supervise::serialize_checkpoint(*again) == first)
        << label << ": serialise -> parse -> serialise is not a fixed point";
  }
  // The mutators must reach both sides: inputs the parser rejects, and
  // mutated inputs it still accepts (digits swapped inside a blob, a count
  // that still matches) — about a fifth of the rounds.
  EXPECT_GT(accepted, static_cast<std::size_t>(kRounds / 20));
  EXPECT_LT(accepted, static_cast<std::size_t>(kRounds));
}

}  // namespace
}  // namespace icsfuzz
