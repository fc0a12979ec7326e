// Self-fuzzing harness for the session framing layer: split_stream() (the
// client's canonical split, framing.hpp) against StreamReassembler (the
// server's incremental split, reassembler.hpp).
//
// The pipelined TCP session client sends a whole session at once, so the
// server's reassembler sees coalesced segments of arbitrary shape. The
// in-process vs over-TCP differential oracle holds only if, for every
// stream, every segmentation reassembles to the canonical split. The
// hand-written cases in test_reassembler.cpp pin the known shapes; this
// harness drives the same property with the fuzzer's own byte mutators
// (the operators Strategy::ByteMutation stacks), AFL-style: a pool seeded
// with valid multi-frame streams per framing, each round stacking 1-8
// mutations on a pool entry and keeping some results as new seeds. Each
// stream is fed whole and in random chunkings, and every feeding must
// yield the canonical frames and residue, with the residue index split_stream
// reports.
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
#include "session/reassembler.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

using session::Framing;
using session::MessageRange;
using session::StreamReassembler;

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

struct Split {
  std::vector<Bytes> frames;
  Bytes residue;
  std::size_t residue_index = 0;
};

/// The canonical split, checked for its own shape: contiguous ranges from
/// offset 0 covering exactly the considered prefix, at most
/// kMaxSessionMessages complete frames, and the residue (if any) last.
Split canonical(Framing framing, const Bytes& stream) {
  std::vector<MessageRange> ranges;
  Split out;
  out.residue_index = session::split_stream(framing, ByteSpan(stream), ranges);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].offset, offset);
    EXPECT_GT(ranges[i].length, 0u);
    const std::uint8_t* data = stream.data() + ranges[i].offset;
    if (i == out.residue_index) {
      out.residue.assign(data, data + ranges[i].length);
    } else {
      out.frames.emplace_back(data, data + ranges[i].length);
    }
    offset += ranges[i].length;
  }
  EXPECT_EQ(offset, std::min(stream.size(), session::kMaxSessionStreamBytes));
  EXPECT_LE(out.frames.size(), session::kMaxSessionMessages);
  EXPECT_EQ(out.residue_index, out.frames.size());
  EXPECT_GE(out.residue_index + 1, ranges.size());
  return out;
}

/// Random chunk sizes covering `size` bytes: mostly small pieces, with
/// runs of single bytes and the odd large piece.
std::vector<std::size_t> random_chunking(std::size_t size, Rng& rng) {
  std::vector<std::size_t> chunks;
  std::size_t remaining = size;
  while (remaining > 0) {
    std::size_t take = 1;
    switch (rng.below(4)) {
      case 0: take = 1; break;
      case 1: take = rng.between(1, 8); break;
      case 2: take = rng.between(1, 64); break;
      default: take = rng.between(1, remaining); break;
    }
    take = std::min(take, remaining);
    chunks.push_back(take);
    remaining -= take;
  }
  return chunks;
}

/// Feeds `stream` in `chunks` to a reset reassembler and compares the
/// result with `expected`. Returns false (after reporting) on a mismatch.
bool feed_matches(StreamReassembler& reassembler, std::vector<Bytes>& frames,
                  const Bytes& stream, const std::vector<std::size_t>& chunks,
                  const Split& expected, const std::string& label) {
  reassembler.reset();
  frames.clear();
  std::size_t offset = 0;
  for (const std::size_t chunk : chunks) {
    reassembler.feed(ByteSpan(stream.data() + offset, chunk));
    offset += chunk;
  }
  const ByteSpan residue = reassembler.finish();
  const bool same = frames == expected.frames &&
                    Bytes(residue.begin(), residue.end()) == expected.residue &&
                    reassembler.frames() == expected.residue_index;
  EXPECT_TRUE(same) << label << ": " << frames.size() << " frames + "
                    << residue.size() << " residue bytes, expected "
                    << expected.frames.size() << " + "
                    << expected.residue.size();
  return same;
}

TEST(SelfFuzzFraming, ByteMutationStreamsReassembleToTheCanonicalSplit) {
  const std::uint64_t seed = harness_seed();
  const mutation::MutatorSuite mutators;
  std::size_t streams_checked = 0;
  std::size_t with_residue = 0;
  std::size_t capped = 0;
  for (const Framing framing : kFramings) {
    Rng rng(seed ^ static_cast<std::uint64_t>(framing));
    std::vector<Bytes> pool;
    for (int i = 0; i < 16; ++i) pool.push_back(seed_stream(framing, rng));
    std::vector<Bytes> frames;
    StreamReassembler reassembler(framing, [&](ByteSpan frame) {
      frames.emplace_back(frame.begin(), frame.end());
    });
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

      const Split expected = canonical(framing, stream);
      if (!expected.residue.empty()) ++with_residue;
      if (expected.frames.size() == session::kMaxSessionMessages) ++capped;
      const std::string label =
          "framing=" + std::string(session::to_string(framing)) +
          " seed=" + std::to_string(seed) + " round=" + std::to_string(round);
      ASSERT_TRUE(feed_matches(reassembler, frames, stream, {stream.size()},
                               expected, label + " whole"));
      for (int c = 0; c < kChunkingsPerStream; ++c) {
        ASSERT_TRUE(feed_matches(reassembler, frames, stream,
                                 random_chunking(stream.size(), rng), expected,
                                 label + " chunking=" + std::to_string(c)));
      }
      ++streams_checked;
    }
  }
  EXPECT_EQ(streams_checked, std::size(kFramings) * kRoundsPerFraming);
  // The mutators must actually reach both sides of the property: streams
  // that end mid-frame or malformed, and streams that hit the message cap.
  EXPECT_GT(with_residue, streams_checked / 10);
  EXPECT_GT(capped, 0u);
}

TEST(SelfFuzzFraming, StreamsStraddlingTheByteCapClipIdentically) {
  // Mutated streams within 2 KiB of kMaxSessionStreamBytes, on either side
  // of it: the message cap turns all but the first frames into the raw
  // tail, and that tail must end at the stream's end below the byte cap
  // and at the cap above it, identically on both sides, whatever the
  // chunking.
  const mutation::MutatorSuite mutators;
  Rng rng(harness_seed() ^ 0xCA9);
  std::vector<Bytes> frames;
  for (const Framing framing : kFramings) {
    StreamReassembler reassembler(framing, [&](ByteSpan frame) {
      frames.emplace_back(frame.begin(), frame.end());
    });
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
      const Split expected = canonical(framing, stream);
      const std::string label =
          "framing=" + std::string(session::to_string(framing)) +
          " round=" + std::to_string(round) +
          " size=" + std::to_string(stream.size());
      ASSERT_TRUE(feed_matches(reassembler, frames, stream, {stream.size()},
                               expected, label + " whole"));
      std::vector<std::size_t> chunks;
      for (std::size_t left = stream.size(); left > 0;) {
        const std::size_t take = std::min<std::size_t>(
            left, rng.between(1, 64 << 10));
        chunks.push_back(take);
        left -= take;
      }
      ASSERT_TRUE(feed_matches(reassembler, frames, stream, chunks, expected,
                               label + " chunked"));
    }
  }
}

}  // namespace
}  // namespace icsfuzz
