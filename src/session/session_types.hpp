// Shared vocabulary of the session layer — dependency-free so the backend
// seam (fuzzer/exec_backend.hpp) can embed session options without pulling
// the framing/sequencer machinery into every translation unit.
//
// A *session* is one byte stream whose canonical message list is the
// framer's split of the whole stream (framing.hpp): the fuzzer keeps
// treating it as a single packet (dedup, corpus, retained pool, distill,
// checkpoints all unchanged), while the session backends execute it as a
// sequence of per-message exchanges against a stateful server — one target
// reset, one coverage trace, many messages.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace icsfuzz::session {

/// Per-protocol message framing of the six registry stacks. Mirrors each
/// server's own stream-drain rules exactly (framing.cpp documents the
/// per-variant byte layout) — split_stream, which both session arms run,
/// MUST agree with the target or the per-message differential oracle
/// breaks.
enum class Framing : std::uint8_t {
  kNone = 0,   ///< not a session target; whole stream = one message
  kApci,       ///< IEC 60870-5-104 APCI: 0x68 + 1-byte length (IEC104, lib60870)
  kMbap,       ///< Modbus/TCP MBAP header, big-endian length (libmodbus)
  kTpkt,       ///< RFC 1006 TPKT over COTP, MMS/ICCP (libiec61850, libiec_iccp_mod)
  kDnp3Link,   ///< DNP3 link-layer frame with CRC blocks (opendnp3)
};

std::string_view to_string(Framing framing);

/// Complete messages a session may carry before split_stream collapses
/// the rest of the stream into one raw tail — bounds both arms' work and
/// memory on adversarial many-tiny-frame streams.
inline constexpr std::size_t kMaxSessionMessages = 256;

/// How a session backend executes streams.
struct SessionOptions {
  /// kNone disables the session layer (plain single-exchange backends).
  Framing framing = Framing::kNone;
  /// Record per-message request/response byte streams (SessionTraffic) —
  /// differential-oracle tests only; off on fuzzing hot paths.
  bool record_traffic = false;
};

/// Per-message byte traffic of the last executed session (recorded only
/// under SessionOptions::record_traffic).
struct SessionTraffic {
  std::vector<Bytes> requests;
  std::vector<Bytes> responses;

  void clear() {
    requests.clear();
    responses.clear();
  }
};

}  // namespace icsfuzz::session
