// Self-fuzzing harness for the session framing layer: split_stream()
// (framing.hpp), the one split of a session stream into messages that the
// client, the in-process session backend and the shim's TCP server all run.
//
// The in-process vs over-TCP differential oracle runs this split on both
// arms, so its correctness is the oracle's premise: every stream must
// decompose into well-formed frames and at most one residue. The
// hand-written cases in test_framing.cpp pin the known shapes; this
// harness drives the split's invariants with the fuzzer's own byte
// mutators (the operators Strategy::ByteMutation stacks), AFL-style: a
// pool seeded with valid multi-frame streams per framing, each round
// stacking 1-8 mutations on a pool entry and keeping some results as new
// seeds. For every stream:
//   * the ranges tile the considered prefix (the first
//     kMaxSessionStreamBytes bytes) in order, with no empty range;
//   * there are at most kMaxSessionMessages complete frames, and
//     peek_frame accepts each one at exactly its size;
//   * the residue index is the number of complete frames, and a residue
//     below the message cap starts where peek_frame finds no complete
//     frame — the split never stops early.
//
// The budget is fixed; the seed is fixed too unless ICSFUZZ_STRESS_SEED is
// set, which the CI fault-stress lane does with a fresh value per round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "mutation/mutator.hpp"
#include "session/framing.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

using session::Framing;
using session::MessageRange;
using session::Peek;

const Framing kFramings[] = {Framing::kApci, Framing::kMbap, Framing::kTpkt,
                             Framing::kDnp3Link};

constexpr int kRoundsPerFraming = 4000;
constexpr int kChunkingsPerStream = 4;
constexpr std::size_t kPoolCap = 256;

/// FNV-1a of ICSFUZZ_STRESS_SEED, or a fixed seed when it is unset.
std::uint64_t harness_seed() {
  const char* stress = std::getenv("ICSFUZZ_STRESS_SEED");
  if (stress == nullptr) return 0x5E1FF022;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = stress; *c != '\0'; ++c) {
    hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
  }
  return hash;
}

/// One valid frame of `framing` with a random body, per framing.hpp's
/// header rules.
Bytes random_frame(Framing framing, Rng& rng) {
  Bytes frame;
  std::size_t total = 0;
  switch (framing) {
    case Framing::kApci: {
      const auto body = static_cast<std::uint8_t>(rng.below(40));
      frame = {0x68, body};
      total = 2u + body;
      break;
    }
    case Framing::kMbap: {
      const auto declared = static_cast<std::uint16_t>(rng.between(1, 40));
      frame = {0x00, rng.byte(), 0x00, 0x00,
               static_cast<std::uint8_t>(declared >> 8),
               static_cast<std::uint8_t>(declared & 0xFF)};
      total = 6u + declared;
      break;
    }
    case Framing::kTpkt: {
      total = rng.between(4, 48);
      frame = {0x03, 0x00, static_cast<std::uint8_t>(total >> 8),
               static_cast<std::uint8_t>(total & 0xFF)};
      break;
    }
    default: {
      const auto declared = static_cast<std::uint8_t>(rng.between(5, 60));
      const std::size_t user = declared - 5u;
      frame = {0x05, 0x64, declared, 0xC4, 0x01, 0x00, 0x02, 0x00,
               0xAA, 0xBB};
      total = 10 + user + 2 * ((user + 15) / 16);
      break;
    }
  }
  while (frame.size() < total) frame.push_back(rng.byte());
  return frame;
}

/// A valid multi-frame stream: 1-12 frames, or (rarely) a flood of
/// minimal frames past the message cap.
Bytes seed_stream(Framing framing, Rng& rng) {
  Bytes stream;
  const std::size_t frames = rng.chance(1, 16)
                                 ? session::kMaxSessionMessages +
                                       rng.between(1, 16)
                                 : rng.between(1, 12);
  for (std::size_t f = 0; f < frames; ++f) {
    append(stream, ByteSpan(random_frame(framing, rng)));
  }
  return stream;
}

/// Splits `stream` and checks the split's invariants; returns false (after
/// reporting) when one fails. `residue` and `frames` receive the residue's
/// length (0 when none) and the complete-frame count.
bool split_holds(Framing framing, const Bytes& stream,
                 std::vector<MessageRange>& ranges, std::size_t& frames,
                 std::size_t& residue, const std::string& label) {
  const std::size_t residue_index =
      session::split_stream(framing, ByteSpan(stream), ranges);
  const std::size_t limit =
      std::min(stream.size(), session::kMaxSessionStreamBytes);
  frames = std::min(residue_index, ranges.size());
  residue = residue_index < ranges.size() ? ranges.back().length : 0;
  bool ok = residue_index == ranges.size() ||
            residue_index + 1 == ranges.size();
  EXPECT_TRUE(ok) << label << ": residue index " << residue_index << " of "
                  << ranges.size() << " ranges";
  std::size_t offset = 0;
  for (std::size_t i = 0; ok && i < ranges.size(); ++i) {
    ok = ranges[i].offset == offset && ranges[i].length > 0;
    EXPECT_TRUE(ok) << label << ": range " << i << " at "
                    << ranges[i].offset << "+" << ranges[i].length
                    << " does not follow offset " << offset;
    if (ok && i < residue_index) {
      std::size_t frame_size = 0;
      ok = session::peek_frame(framing, stream.data() + offset,
                               limit - offset, frame_size) == Peek::kFrame &&
           frame_size == ranges[i].length;
      EXPECT_TRUE(ok) << label << ": frame " << i << " of "
                      << ranges[i].length << " bytes is not one peek_frame "
                      << "accepts";
    }
    offset += ranges[i].length;
  }
  if (!ok) return false;
  ok = offset == limit && frames <= session::kMaxSessionMessages;
  EXPECT_TRUE(ok) << label << ": ranges end at " << offset << " of " << limit
                  << " with " << frames << " frames";
  if (ok && residue != 0 && frames < session::kMaxSessionMessages) {
    // Below the message cap, the residue is there only because no
    // complete frame starts where it does.
    const MessageRange& tail = ranges.back();
    std::size_t frame_size = 0;
    ok = session::peek_frame(framing, stream.data() + tail.offset,
                             tail.length, frame_size) != Peek::kFrame;
    EXPECT_TRUE(ok) << label << ": the residue at " << tail.offset
                    << " starts with a complete frame";
  }
  return ok;
}

TEST(SelfFuzzFraming, ByteMutationStreamsSplitIntoFramesAndOneResidue) {
  const std::uint64_t seed = harness_seed();
  const mutation::MutatorSuite mutators;
  std::size_t streams_checked = 0;
  std::size_t with_residue = 0;
  std::size_t capped = 0;
  std::vector<MessageRange> ranges;
  for (const Framing framing : kFramings) {
    Rng rng(seed ^ static_cast<std::uint64_t>(framing));
    std::vector<Bytes> pool;
    for (int i = 0; i < 16; ++i) pool.push_back(seed_stream(framing, rng));
    Bytes stream;
    for (int round = 0; round < kRoundsPerFraming; ++round) {
      stream = rng.pick(pool);
      const std::uint64_t stack = rng.between(1, 8);
      for (std::uint64_t i = 0; i < stack; ++i) {
        mutators.mutate_in_place(stream, rng);
      }
      if (rng.chance(1, 8)) {  // splice: two sessions back to back
        append(stream, ByteSpan(rng.pick(pool)));
      }
      if (rng.chance(1, 4) && pool.size() < kPoolCap) pool.push_back(stream);

      std::size_t frames = 0;
      std::size_t residue = 0;
      ASSERT_TRUE(split_holds(
          framing, stream, ranges, frames, residue,
          "framing=" + std::string(session::to_string(framing)) +
              " seed=" + std::to_string(seed) +
              " round=" + std::to_string(round)));
      if (residue != 0) ++with_residue;
      if (frames == session::kMaxSessionMessages) ++capped;
      ++streams_checked;
    }
  }
  EXPECT_EQ(streams_checked, std::size(kFramings) * kRoundsPerFraming);
  // The mutators must actually reach both sides of the property: streams
  // that end mid-frame or malformed, and streams that hit the message cap.
  EXPECT_GT(with_residue, streams_checked / 10);
  EXPECT_GT(capped, 0u);
}

TEST(SelfFuzzFraming, StreamsStraddlingTheByteCapClipAtTheCap) {
  // Mutated streams within 2 KiB of kMaxSessionStreamBytes, on either side
  // of it: the message cap turns all but the first frames into the raw
  // tail, and that tail must end at the stream's end below the byte cap
  // and at the cap above it.
  const mutation::MutatorSuite mutators;
  Rng rng(harness_seed() ^ 0xCA9);
  std::vector<MessageRange> ranges;
  for (const Framing framing : kFramings) {
    for (int round = 0; round < 4; ++round) {
      Bytes unit;
      while (unit.size() < 4096) {
        append(unit, ByteSpan(random_frame(framing, rng)));
      }
      Bytes stream;
      const std::size_t target =
          session::kMaxSessionStreamBytes - 2048 + rng.below(4096);
      while (stream.size() < target) append(stream, ByteSpan(unit));
      stream.resize(target);
      for (int i = 0; i < 4; ++i) mutators.mutate_in_place(stream, rng);
      std::size_t frames = 0;
      std::size_t residue = 0;
      ASSERT_TRUE(split_holds(
          framing, stream, ranges, frames, residue,
          "framing=" + std::string(session::to_string(framing)) +
              " round=" + std::to_string(round) +
              " size=" + std::to_string(stream.size())));
      EXPECT_NE(residue, 0u);
    }
  }
}

}  // namespace
}  // namespace icsfuzz
