// Property suite for the session framing layer (src/session/framing.hpp):
// split_stream is the one answer to where a session message ends, on the
// client, in the in-process session backend and in the shim's TCP server
// alike. Pinned here:
//
//   * valid multi-frame streams split into their frames, and an
//     incomplete tail becomes the residue message,
//   * malformed and oversized length fields are rejected into a raw tail
//     without allocation blowups (an oversized declared length never
//     completes a frame; streams clip deterministically at
//     kMaxSessionStreamBytes),
//   * the message cap collapses pathological many-tiny-frame streams into
//     one raw tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "session/framing.hpp"
#include "util/bytes.hpp"

namespace icsfuzz {
namespace {

using session::Framing;
using session::MessageRange;
using session::Peek;

/// All framings with real header rules (kNone treats the stream as one
/// message and has no interesting segmentation behaviour).
const Framing kFramings[] = {Framing::kApci, Framing::kMbap, Framing::kTpkt,
                             Framing::kDnp3Link};

// -- Frame builders (valid frames per framing.hpp's header rules). --------

Bytes apci_frame(std::uint8_t body_len, std::uint8_t fill) {
  Bytes frame(2u + body_len, fill);
  frame[0] = 0x68;
  frame[1] = body_len;
  return frame;
}

Bytes mbap_frame(std::uint16_t declared, std::uint8_t fill) {
  // declared counts unit id + PDU; total frame = 6 + declared.
  Bytes frame(6u + declared, fill);
  const std::uint8_t header[] = {0x00, 0x01, 0x00, 0x00,
                                 static_cast<std::uint8_t>(declared >> 8),
                                 static_cast<std::uint8_t>(declared & 0xFF)};
  std::copy(std::begin(header), std::end(header), frame.begin());
  return frame;
}

Bytes tpkt_frame(std::uint16_t total, std::uint8_t fill) {
  Bytes frame(total, fill);
  const std::uint8_t header[] = {0x03, 0x00,
                                 static_cast<std::uint8_t>(total >> 8),
                                 static_cast<std::uint8_t>(total & 0xFF)};
  std::copy(std::begin(header), std::end(header), frame.begin());
  return frame;
}

Bytes dnp3_frame(std::uint8_t declared, std::uint8_t fill) {
  // declared >= 5; user = declared - 5; frame = 10 + user + 2*ceil(user/16).
  const std::size_t user = declared - 5;
  const std::size_t total = 10 + user + 2 * ((user + 15) / 16);
  Bytes frame(total, fill);
  const std::uint8_t header[] = {0x05, 0x64, declared, 0xC4, 0x01,
                                 0x00, 0x02, 0x00, 0xAA, 0xBB};
  std::copy(std::begin(header), std::end(header), frame.begin());
  return frame;
}

/// A short valid multi-frame stream for each framing, plus an optional
/// incomplete tail.
Bytes sample_stream(Framing framing, bool with_tail) {
  Bytes stream;
  switch (framing) {
    case Framing::kApci:
      append(stream, ByteSpan(apci_frame(4, 0x11)));
      append(stream, ByteSpan(apci_frame(0, 0x00)));
      append(stream, ByteSpan(apci_frame(9, 0x22)));
      if (with_tail) {
        const Bytes tail = {0x68, 0x0A, 0x01};  // 9 more bytes never arrive
        append(stream, ByteSpan(tail));
      }
      break;
    case Framing::kMbap:
      append(stream, ByteSpan(mbap_frame(3, 0x33)));
      append(stream, ByteSpan(mbap_frame(1, 0x44)));
      append(stream, ByteSpan(mbap_frame(7, 0x55)));
      if (with_tail) {
        const Bytes tail = {0x00, 0x02, 0x00};  // header cut mid-way
        append(stream, ByteSpan(tail));
      }
      break;
    case Framing::kTpkt:
      append(stream, ByteSpan(tpkt_frame(7, 0x66)));
      append(stream, ByteSpan(tpkt_frame(4, 0x00)));
      append(stream, ByteSpan(tpkt_frame(12, 0x77)));
      if (with_tail) {
        const Bytes tail = {0x03, 0x00, 0x00, 0x20, 0x01};
        append(stream, ByteSpan(tail));
      }
      break;
    default:
      append(stream, ByteSpan(dnp3_frame(5, 0x88)));
      append(stream, ByteSpan(dnp3_frame(21, 0x99)));
      append(stream, ByteSpan(dnp3_frame(6, 0xAA)));
      if (with_tail) {
        const Bytes tail = {0x05, 0x64, 0x10, 0xC4};
        append(stream, ByteSpan(tail));
      }
      break;
  }
  return stream;
}

/// Expected decomposition of `stream`: complete-frame byte strings plus
/// the residue bytes, straight from the canonical splitter.
struct Canonical {
  std::vector<Bytes> frames;
  Bytes residue;
};

Canonical canonical_split(Framing framing, const Bytes& stream) {
  std::vector<MessageRange> ranges;
  const std::size_t residue_index =
      session::split_stream(framing, ByteSpan(stream), ranges);
  Canonical out;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const std::uint8_t* data = stream.data() + ranges[i].offset;
    if (i == residue_index) {
      out.residue.assign(data, data + ranges[i].length);
    } else {
      out.frames.emplace_back(data, data + ranges[i].length);
    }
  }
  return out;
}

// -- Frames and residue. ---------------------------------------------------

TEST(Framing, SampleStreamsSplitIntoFramesAndResidue) {
  for (const Framing framing : kFramings) {
    const Bytes whole = sample_stream(framing, false);
    const Canonical clean = canonical_split(framing, whole);
    EXPECT_EQ(clean.frames.size(), 3u) << session::to_string(framing);
    EXPECT_TRUE(clean.residue.empty()) << session::to_string(framing);
    Bytes joined;
    for (const Bytes& frame : clean.frames) append(joined, ByteSpan(frame));
    EXPECT_EQ(joined, whole) << session::to_string(framing);

    const Bytes torn = sample_stream(framing, true);
    const Canonical tailed = canonical_split(framing, torn);
    EXPECT_EQ(tailed.frames, clean.frames) << session::to_string(framing);
    EXPECT_EQ(tailed.residue,
              Bytes(torn.begin() + static_cast<std::ptrdiff_t>(whole.size()),
                    torn.end()))
        << session::to_string(framing);
  }
}

// -- Malformed / oversized inputs. ----------------------------------------

TEST(Framing, MalformedHeadersBecomeRawTail) {
  struct Case {
    Framing framing;
    Bytes bytes;
  };
  const Case cases[] = {
      // MBAP declared length 0 — the server's drain loop breaks malformed.
      {Framing::kMbap, {0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01}},
      // TPKT total length below the header size.
      {Framing::kTpkt, {0x03, 0x00, 0x00, 0x03, 0xFF, 0xFF}},
      // DNP3 declared length below the minimum of 5.
      {Framing::kDnp3Link, {0x05, 0x64, 0x04, 0xC4, 0x01, 0x00, 0x02, 0x00,
                            0xAA, 0xBB, 0x00, 0x00}},
  };
  for (const Case& c : cases) {
    // Prefix with valid frames: they still split out, and the malformed
    // remainder collapses to the residue.
    Bytes stream = sample_stream(c.framing, false);
    const Canonical valid = canonical_split(c.framing, stream);
    append(stream, ByteSpan(c.bytes));
    const Canonical expected = canonical_split(c.framing, stream);
    ASSERT_EQ(expected.frames.size(), 3u);
    EXPECT_EQ(expected.frames, valid.frames);
    EXPECT_EQ(expected.residue, c.bytes);
    // The raw tail latches: valid frames after the malformed header stay
    // inside it.
    const Bytes more = sample_stream(c.framing, false);
    append(stream, ByteSpan(more));
    const Canonical latched = canonical_split(c.framing, stream);
    EXPECT_EQ(latched.frames.size(), 3u);
    EXPECT_EQ(latched.residue.size(), c.bytes.size() + more.size());
  }
}

TEST(Framing, OversizedDeclaredLengthIsResidueOfTheReceivedBytes) {
  // MBAP header declaring the maximum body: a complete frame would need
  // 6 + 65535 bytes. With fewer bytes there the header never completes a
  // frame, whatever it declares: the received bytes are the residue.
  Bytes stream = {0x00, 0x01, 0x00, 0x00, 0xFF, 0xFF};
  const Bytes chunk(1024, 0xAB);
  for (int i = 0; i < 16; ++i) append(stream, ByteSpan(chunk));
  std::size_t frame_size = 0;
  EXPECT_EQ(session::peek_frame(Framing::kMbap, stream.data(), stream.size(),
                                frame_size),
            Peek::kNeedMore);
  const Canonical expected = canonical_split(Framing::kMbap, stream);
  EXPECT_TRUE(expected.frames.empty());
  EXPECT_EQ(expected.residue, stream);
}

TEST(Framing, StreamCapClipsDeterministically) {
  // Well past kMaxSessionStreamBytes of valid APCI frames: split_stream
  // considers exactly the capped prefix, and the frame the cap cuts is the
  // residue.
  const Bytes frame = apci_frame(253, 0x5A);  // 255 bytes per frame
  Bytes stream;
  const std::size_t repeats =
      (session::kMaxSessionStreamBytes + (64 << 10)) / frame.size();
  stream.reserve(repeats * frame.size());
  for (std::size_t i = 0; i < repeats; ++i) append(stream, ByteSpan(frame));
  ASSERT_GT(stream.size(), session::kMaxSessionStreamBytes);

  // Frames past the message cap: one raw tail running to the byte cap.
  std::vector<MessageRange> ranges;
  const std::size_t residue_index =
      session::split_stream(Framing::kApci, ByteSpan(stream), ranges);
  ASSERT_EQ(ranges.size(), session::kMaxSessionMessages + 1);
  EXPECT_EQ(residue_index, session::kMaxSessionMessages);
  EXPECT_EQ(ranges.back().offset,
            session::kMaxSessionMessages * frame.size());
  EXPECT_EQ(ranges.back().offset + ranges.back().length,
            session::kMaxSessionStreamBytes);

  // Bytes past the cap never count: a stream that differs only there
  // splits identically.
  Bytes tampered = stream;
  tampered[session::kMaxSessionStreamBytes] ^= 0xFF;
  append(tampered, ByteSpan(frame));
  std::vector<MessageRange> tampered_ranges;
  session::split_stream(Framing::kApci, ByteSpan(tampered), tampered_ranges);
  ASSERT_EQ(tampered_ranges.size(), ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(tampered_ranges[i].offset, ranges[i].offset);
    EXPECT_EQ(tampered_ranges[i].length, ranges[i].length);
  }
}

TEST(Framing, MessageCapCollapsesTinyFrameFloods) {
  // kMaxSessionMessages empty APCI frames, then more: everything past the
  // cap is one raw tail.
  const Bytes frame = apci_frame(0, 0);  // 2 bytes
  Bytes stream;
  for (std::size_t i = 0; i < session::kMaxSessionMessages + 10; ++i) {
    append(stream, ByteSpan(frame));
  }
  const Canonical expected = canonical_split(Framing::kApci, stream);
  EXPECT_EQ(expected.frames.size(), session::kMaxSessionMessages);
  EXPECT_EQ(expected.residue.size(), 10 * frame.size());

  std::vector<MessageRange> ranges;
  const std::size_t residue_index =
      session::split_stream(Framing::kApci, ByteSpan(stream), ranges);
  ASSERT_EQ(ranges.size(), session::kMaxSessionMessages + 1);
  EXPECT_EQ(residue_index, session::kMaxSessionMessages);
  EXPECT_EQ(ranges.back().length, 10 * frame.size());
}

}  // namespace
}  // namespace icsfuzz
