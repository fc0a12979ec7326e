// Injection-runtime suite: a foreign binary (demo/, a separate CMake
// project that never links icsfuzz) becomes a coverage-guided fork-server
// target purely via LD_PRELOAD of libicsfuzz-preload.so.
//
// Three rows of the degrade matrix are pinned here:
//
//   * instrumented demo (sancov flags + no-op stubs): edges visibly
//     accumulate in the CoverageMap, the inject-info block advertises
//     sancov, persistent mode engages through the cooperation hooks,
//   * plain demo (no sancov): runs fault-driven — zero events, empty map,
//     but crash/hang/OOM classification still exact,
//   * fault differential: the classification of the demo's deliberate
//     fault endpoints is bit-for-bit the shim's at the ExecResult level
//     (same FaultKind, same site, same detail string) — the shim's
//     ICSFUZZ_SHIM_SEGV_AT knob exists precisely so its crash arm dies on
//     the same signal 11 the demo's null write does.
//
// The tcp mode is pinned too: the demo's `--serve` loop under the kTcp
// session backend, whose per-message responses must equal the demo's
// fork-mode answers to the same frames. The demo answers each frame as it
// reads it, so it is also the server that drives the kTcp client's
// read-while-writing loop.
//
// The demo binaries default to the paths the ExternalProject build wrote;
// the CI injection lane re-points them at a standalone out-of-tree build
// via ICSFUZZ_DEMO_SERVER / ICSFUZZ_DEMO_SERVER_PLAIN env vars.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "exec_oop/oop_executor.hpp"
#include "fuzzer/executor.hpp"
#include "inject/inject_protocol.hpp"
#include "protocols/target_registry.hpp"
#include "session/framing.hpp"
#include "session/session_types.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/test_support.hpp"

namespace icsfuzz {
namespace {

using test::ScopedEnv;
using test::shim_cmd;

std::string preload_path() {
  if (const char* env = std::getenv("ICSFUZZ_PRELOAD")) return env;
  return ICSFUZZ_PRELOAD_PATH;
}

std::vector<std::string> demo_cmd() {
  if (const char* env = std::getenv("ICSFUZZ_DEMO_SERVER")) return {env};
  return {ICSFUZZ_DEMO_SERVER_PATH};
}

std::vector<std::string> demo_plain_cmd() {
  if (const char* env = std::getenv("ICSFUZZ_DEMO_SERVER_PLAIN")) {
    return {env};
  }
  return {ICSFUZZ_DEMO_SERVER_PLAIN_PATH};
}

/// Generous deadline for the non-hang paths (loaded CI runners must not
/// turn a healthy execution into a spurious hang).
constexpr int kGenerousTimeoutMs = 30000;
/// Tight deadline for the hang differential — both arms use the same value
/// so the synthetic Hang fault's detail string matches bit for bit.
constexpr int kHangTimeoutMs = 1000;

oop::TargetConfig injected_config(std::vector<std::string> cmd,
                                  std::uint32_t budget = 0) {
  oop::TargetConfig config;
  config.target_cmd = std::move(cmd);
  config.preload = preload_path();
  config.exec_timeout_ms = kGenerousTimeoutMs;
  config.persistent_budget = budget;
  return config;
}

/// Benign MBAP read-holding-registers exchange (FC 0x03, 3 registers).
const Bytes kBenign = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                       0x11, 0x03, 0x00, 0x6B, 0x00, 0x03};
/// A second benign frame taking different branches (FC 0x01, coils).
const Bytes kBenignCoils = {0x00, 0x02, 0x00, 0x00, 0x00, 0x06,
                            0x11, 0x01, 0x00, 0x10, 0x00, 0x08};

/// Minimal frame carrying one of the demo's deliberate fault endpoints.
Bytes fault_frame(std::uint8_t fc) {
  return {0x00, 0x09, 0x00, 0x00, 0x00, 0x02, 0x11, fc};
}
constexpr std::uint8_t kFaultCrash = 0x66;
constexpr std::uint8_t kFaultHang = 0x67;
constexpr std::uint8_t kFaultOom = 0x68;

std::size_t nonzero_cells(const std::uint64_t* words) {
  std::size_t cells = 0;
  for (std::size_t w = 0; w < cov::kMapWords; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      cells += (word & 0xFF) != 0;
      word >>= 8;
    }
  }
  return cells;
}

// -- Instrumented demo: sancov edges flow into the map. -------------------

TEST(Inject, SancovEdgesAccumulateInCoverageMap) {
  oop::OutOfProcessExecutor executor(injected_config(demo_cmd()));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();

  const oop::OutOfProcessExecutor::Outcome& first = executor.run(kBenign);
  ASSERT_EQ(first.status, oop::ExecStatus::kOk) << executor.last_error();
  EXPECT_GT(first.aux.events, 0u)
      << "sancov hits must be counted as instrumentation events";
  EXPECT_FALSE(first.aux.response.empty())
      << "the demo answers FC 0x03 with a register payload";
  EXPECT_GT(nonzero_cells(executor.map_words()), 0u);

  // Adopt into a campaign map: the foreign binary's edges feed the same
  // feedback loop the in-tree targets do, and a branch-different packet
  // surfaces additional edges.
  cov::CoverageMap map;
  map.adopt_external(executor.map_words());
  const cov::TraceSummary a = map.finalize_execution();
  EXPECT_GT(a.trace_edges, 0u);
  EXPECT_TRUE(a.new_coverage);

  const oop::OutOfProcessExecutor::Outcome& second =
      executor.run(kBenignCoils);
  ASSERT_EQ(second.status, oop::ExecStatus::kOk);
  map.adopt_external(executor.map_words());
  const cov::TraceSummary b = map.finalize_execution();
  EXPECT_TRUE(b.new_coverage)
      << "a different function code must reach edges FC 0x03 never did";
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(Inject, RuntimePublishesTheDirtyListOfEveryCompletedExecution) {
  // Stock children (a fresh main() per execution) and persistent loop
  // children both publish their trace's dirty-word list, and adopting
  // from it equals the full-map scan.
  for (const std::uint32_t budget : {0u, 8u}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    oop::OutOfProcessExecutor executor(injected_config(demo_cmd(), budget));
    ASSERT_TRUE(executor.ensure_started()) << executor.last_error();
    for (int i = 0; i < 6; ++i) {
      const oop::OutOfProcessExecutor::Outcome& outcome =
          executor.run(i % 2 == 0 ? kBenign : kBenignCoils);
      ASSERT_EQ(outcome.status, oop::ExecStatus::kOk) << executor.last_error();
      const std::uint16_t* indices = nullptr;
      std::uint32_t count = 0;
      ASSERT_TRUE(oop::dirty_list_load(executor.dirty_list(), indices, count))
          << "execution " << i;
      cov::CoverageMap sparse;
      sparse.adopt_sparse(executor.map_words(), indices, count);
      cov::CoverageMap full;
      full.adopt_external(executor.map_words());
      EXPECT_GT(full.dirty_word_count(), 0u) << "execution " << i;
      EXPECT_EQ(0, std::memcmp(sparse.trace(), full.trace(), cov::kMapSize))
          << "execution " << i;
      EXPECT_EQ(sparse.dirty_word_count(), full.dirty_word_count())
          << "execution " << i;
    }
  }
}

TEST(Inject, InjectInfoBlockAdvertisesSancov) {
  oop::OutOfProcessExecutor executor(injected_config(demo_cmd()));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();
  (void)executor.run(kBenign);

  const inject::InjectInfo info = inject::read_inject_info(
      executor.segment().data(), executor.segment().size());
  ASSERT_TRUE(info.present) << "runtime must publish the info block";
  EXPECT_EQ(info.version, inject::kInjectRuntimeVersion);
  EXPECT_TRUE(info.sancov());
}

TEST(Inject, PersistentModeEngagesThroughCooperationHooks) {
  oop::OutOfProcessExecutor executor(
      injected_config(demo_cmd(), /*budget=*/8));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();
  ASSERT_TRUE(executor.persistent_active())
      << "the instrumented demo exports the persistent marker";

  std::uint64_t steady_events = 0;
  for (int i = 0; i < 6; ++i) {
    const oop::OutOfProcessExecutor::Outcome& outcome = executor.run(kBenign);
    ASSERT_EQ(outcome.status, oop::ExecStatus::kOk)
        << "iteration " << i << ": " << executor.last_error();
    EXPECT_TRUE(outcome.persistent) << "iteration " << i;
    EXPECT_GT(outcome.aux.events, 0u) << "iteration " << i;
    // Same packet, same child: from the second iteration on the event
    // count is steady (iteration 1 additionally walks one-time paths —
    // first-call branches, allocator growth — that never re-run inside
    // the persistent child).
    if (i == 1) {
      steady_events = outcome.aux.events;
    } else if (i > 1) {
      EXPECT_EQ(outcome.aux.events, steady_events) << "iteration " << i;
    }
  }
}

TEST(Inject, PersistentOptOutDegradesToForkPerExec) {
  ScopedEnv knob("ICSFUZZ_INJECT_PERSISTENT", "0");
  oop::OutOfProcessExecutor executor(
      injected_config(demo_cmd(), /*budget=*/8));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();
  EXPECT_FALSE(executor.persistent_active());

  const oop::OutOfProcessExecutor::Outcome& outcome = executor.run(kBenign);
  ASSERT_EQ(outcome.status, oop::ExecStatus::kOk) << executor.last_error();
  EXPECT_FALSE(outcome.persistent);
  EXPECT_GT(outcome.aux.events, 0u);
}

// -- Plain demo: no instrumentation, fault-driven only. -------------------

TEST(Inject, UninstrumentedBinaryRunsFaultDriven) {
  oop::OutOfProcessExecutor executor(injected_config(demo_plain_cmd()));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();

  const oop::OutOfProcessExecutor::Outcome& benign = executor.run(kBenign);
  ASSERT_EQ(benign.status, oop::ExecStatus::kOk) << executor.last_error();
  EXPECT_EQ(benign.aux.events, 0u) << "no sancov, no events";
  EXPECT_EQ(nonzero_cells(executor.map_words()), 0u);
  EXPECT_FALSE(benign.aux.response.empty())
      << "fault-driven fuzzing still observes the response bytes";

  const inject::InjectInfo info = inject::read_inject_info(
      executor.segment().data(), executor.segment().size());
  ASSERT_TRUE(info.present);
  EXPECT_FALSE(info.sancov());

  // A packet too large for a slot reaches stdin byte for byte: a filler
  // frame that ends exactly 12 bytes before the end, then kBenign. Any
  // lost tail byte would turn kBenign into a residue exception.
  Bytes filler(oop::kSlotTestCaseBytes - 3 - kBenign.size(), 0x00);
  const std::size_t declared = filler.size() - 6;
  const Bytes head = {0x00, 0x02, 0x00, 0x00,
                      static_cast<std::uint8_t>(declared >> 8),
                      static_cast<std::uint8_t>(declared & 0xFF),
                      0x11, 0x03, 0x00, 0x6B, 0x00, 0x02};
  std::copy(head.begin(), head.end(), filler.begin());
  Bytes oversized = filler;
  oversized.insert(oversized.end(), kBenign.begin(), kBenign.end());
  ASSERT_GT(oversized.size(), oop::kSlotPacketBytes);
  const Bytes benign_response = benign.aux.response;
  Bytes expected = executor.run(filler).aux.response;
  expected.insert(expected.end(), benign_response.begin(),
                  benign_response.end());
  const oop::OutOfProcessExecutor::Outcome& piped = executor.run(oversized);
  ASSERT_EQ(piped.status, oop::ExecStatus::kOk) << executor.last_error();
  EXPECT_EQ(piped.aux.response, expected);

  // Crash classification works without any instrumentation.
  const oop::OutOfProcessExecutor::Outcome& crash =
      executor.run(fault_frame(kFaultCrash));
  EXPECT_EQ(crash.status, oop::ExecStatus::kCrash);
  EXPECT_EQ(crash.term_signal, SIGSEGV);
}

// -- Differential: demo fault classification == shim's, bit for bit. -----

/// Runs `packet` through a fuzz::Executor over the given backend config
/// and returns a private copy of the classified result.
fuzz::ExecResult classify(const fuzz::ExecBackendConfig& backend,
                          ByteSpan packet) {
  fuzz::ExecutorConfig config;
  config.backend = backend;
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  fuzz::Executor executor(std::move(config));
  return executor.run(*placeholder, packet);
}

fuzz::ExecBackendConfig demo_backend(int timeout_ms,
                                     std::uint64_t jail_mb = 0) {
  fuzz::ExecBackendConfig backend;
  backend.kind = fuzz::BackendKind::kForkPerExec;
  backend.target_cmd = demo_cmd();
  backend.preload = preload_path();
  backend.exec_timeout_ms = timeout_ms;
  backend.jail.address_space_mb = jail_mb;
  return backend;
}

fuzz::ExecBackendConfig shim_backend(int timeout_ms,
                                     std::uint64_t jail_mb = 0) {
  fuzz::ExecBackendConfig backend;
  backend.kind = fuzz::BackendKind::kForkPerExec;
  backend.target_cmd = shim_cmd();
  backend.exec_timeout_ms = timeout_ms;
  backend.jail.address_space_mb = jail_mb;
  return backend;
}

/// The classification contract: identical fault lists, field by field.
void expect_same_classification(const fuzz::ExecResult& demo,
                                const fuzz::ExecResult& shim) {
  EXPECT_EQ(demo.crashed(), shim.crashed());
  ASSERT_EQ(demo.faults.size(), shim.faults.size());
  for (std::size_t i = 0; i < demo.faults.size(); ++i) {
    EXPECT_EQ(demo.faults[i].kind, shim.faults[i].kind) << "fault " << i;
    EXPECT_EQ(demo.faults[i].site, shim.faults[i].site) << "fault " << i;
    EXPECT_EQ(demo.faults[i].detail, shim.faults[i].detail) << "fault " << i;
  }
}

TEST(InjectDifferential, CrashClassificationMatchesShim) {
  // The shim arm raises SIGSEGV on execution 1 via the fault plan; the
  // demo arm's FC 0x66 does a real null write. Both die on signal 11, so
  // the synthetic crash fault must match down to the detail string.
  const fuzz::ExecResult demo =
      classify(demo_backend(kGenerousTimeoutMs), fault_frame(kFaultCrash));
  fuzz::ExecResult shim;
  {
    ScopedEnv knob("ICSFUZZ_SHIM_SEGV_AT", "1");
    shim = classify(shim_backend(kGenerousTimeoutMs), kBenign);
  }
  ASSERT_TRUE(demo.crashed());
  expect_same_classification(demo, shim);
}

TEST(InjectDifferential, HangClassificationMatchesShim) {
  const fuzz::ExecResult demo =
      classify(demo_backend(kHangTimeoutMs), fault_frame(kFaultHang));
  fuzz::ExecResult shim;
  {
    ScopedEnv knob("ICSFUZZ_SHIM_HANG_AT", "1");
    shim = classify(shim_backend(kHangTimeoutMs), kBenign);
  }
  ASSERT_TRUE(demo.crashed());
  expect_same_classification(demo, shim);
}

TEST(InjectDifferential, OomClassificationMatchesShim) {
  // Both arms run under the same 256 MiB address-space jail; both exit
  // through the jail's allocation-failure code, never a raw bad_alloc.
  constexpr std::uint64_t kJailMb = 256;
  const fuzz::ExecResult demo = classify(
      demo_backend(kGenerousTimeoutMs, kJailMb), fault_frame(kFaultOom));
  fuzz::ExecResult shim;
  {
    ScopedEnv knob("ICSFUZZ_SHIM_OOM_AT", "1");
    shim = classify(shim_backend(kGenerousTimeoutMs, kJailMb), kBenign);
  }
  ASSERT_TRUE(demo.crashed());
  expect_same_classification(demo, shim);
}

// -- TCP mode: the demo's own socket server as a kTcp session target. -----

TEST(InjectTcp, DemoServeSplitsRepliesPerMessage) {
  // ICSFUZZ_INJECT_MODE=tcp: the runtime logs the length of every write
  // the demo makes on the session connection, and the client splits the
  // reply stream by that log. The demo answers each frame with one write,
  // so message i's response must be exactly what the demo answers to that
  // frame alone in fork mode.
  fuzz::ExecutorConfig tcp_config;
  tcp_config.backend.kind = fuzz::BackendKind::kTcp;
  tcp_config.backend.target_cmd = demo_cmd();
  tcp_config.backend.target_cmd.push_back("--serve");
  tcp_config.backend.preload = preload_path();
  tcp_config.backend.exec_timeout_ms = kGenerousTimeoutMs;
  tcp_config.backend.session.framing = session::Framing::kMbap;
  tcp_config.backend.session.record_traffic = true;
  telem::Telemetry hub;
  tcp_config.telemetry = telem::Sink(&hub, 0);
  fuzz::Executor tcp(std::move(tcp_config));
  fuzz::ExecutorConfig fork_config;
  fork_config.backend = demo_backend(kGenerousTimeoutMs);
  fuzz::Executor fork(std::move(fork_config));
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();

  const Bytes torn_tail = {0x00, 0x07, 0x00, 0x00, 0x00};
  const Bytes malformed_tail = {0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x11};
  const std::vector<std::vector<Bytes>> sessions = {
      {kBenign},
      {kBenign, kBenignCoils},
      {kBenignCoils, kBenign, kBenignCoils, kBenign, torn_tail},
      {kBenign, kBenign, malformed_tail},
  };
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    Bytes stream;
    for (const Bytes& message : sessions[s]) append(stream, ByteSpan(message));
    const fuzz::ExecResult& result = tcp.run(*placeholder, ByteSpan(stream));
    ASSERT_TRUE(result.faults.empty())
        << "session " << s << ": " << result.faults.front().detail;
    EXPECT_GT(result.events, 0u) << "session " << s;
    const session::SessionTraffic* traffic = tcp.backend().traffic();
    ASSERT_NE(traffic, nullptr);
    ASSERT_EQ(traffic->requests, sessions[s]) << "session " << s;
    ASSERT_EQ(traffic->responses.size(), sessions[s].size())
        << "session " << s;
    for (std::size_t m = 0; m < sessions[s].size(); ++m) {
      const Bytes alone =
          fork.run(*placeholder, ByteSpan(sessions[s][m])).response;
      EXPECT_FALSE(alone.empty()) << "session " << s << " message " << m;
      EXPECT_EQ(traffic->responses[m], alone)
          << "session " << s << " message " << m;
    }
  }
  // The runtime published every session's dirty-word list.
  EXPECT_EQ(hub.snapshot().counter(telem::Counter::kOopAdoptFullScans), 0u);
}

TEST(InjectTcp, RepliesThatArriveWhileTheClientStillSendsDoNotDeadlock) {
  // The demo answers each frame as soon as it has read it, so this is the
  // server that exercises the kTcp client's read-while-writing loop (the
  // shim answers only after EOF). 256 max-register reads fill the message
  // cap at the front of the stream, and the same read repeated past
  // kMaxSessionStreamBytes is the raw tail: the demo writes its 256
  // answers while the client still has ~1 MiB of requests (past the
  // loopback socket buffers) to send, so the replies arrive inside the
  // client's send loop, which must take them and finish the session. The
  // ~66 KiB of answers are the most the demo gives one session and still
  // fit in the loopback buffers, so this runs the interleaving rather
  // than proving it is needed.
  const Bytes read_max = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                          0x11, 0x03, 0x00, 0x00, 0x00, 0x7D};
  Bytes stream;
  while (stream.size() <= session::kMaxSessionStreamBytes) {
    append(stream, ByteSpan(read_max));
  }

  fuzz::ExecutorConfig tcp_config;
  tcp_config.backend.kind = fuzz::BackendKind::kTcp;
  tcp_config.backend.target_cmd = demo_cmd();
  tcp_config.backend.target_cmd.push_back("--serve");
  tcp_config.backend.preload = preload_path();
  tcp_config.backend.exec_timeout_ms = kGenerousTimeoutMs;
  tcp_config.backend.session.framing = session::Framing::kMbap;
  tcp_config.backend.session.record_traffic = true;
  // 256 instrumented 125-register reads count past the default event
  // budget; the wall-clock deadline is what this test is about.
  tcp_config.hang_event_budget = std::uint64_t{1} << 40;
  fuzz::Executor tcp(std::move(tcp_config));
  fuzz::ExecutorConfig fork_config;
  fork_config.backend = demo_backend(kGenerousTimeoutMs);
  fuzz::Executor fork(std::move(fork_config));
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  const Bytes alone = fork.run(*placeholder, ByteSpan(read_max)).response;
  ASSERT_EQ(alone.size(), 259u);

  const auto start = std::chrono::steady_clock::now();
  const fuzz::ExecResult& result = tcp.run(*placeholder, ByteSpan(stream));
  const std::int64_t waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, kGenerousTimeoutMs);
  ASSERT_TRUE(result.faults.empty()) << result.faults.front().detail;
  EXPECT_EQ(result.session_messages, session::kMaxSessionMessages + 1);
  const session::SessionTraffic* traffic = tcp.backend().traffic();
  ASSERT_NE(traffic, nullptr);
  ASSERT_EQ(traffic->responses.size(), session::kMaxSessionMessages + 1);
  // The client split the reply bytes by the logged lengths, which must
  // account for every byte it read: each frame's answer is the demo's
  // fork-mode answer, and the raw tail got the rest.
  std::size_t logged = 0;
  for (std::size_t m = 0; m < traffic->responses.size(); ++m) {
    if (m < session::kMaxSessionMessages) {
      EXPECT_EQ(traffic->responses[m], alone) << "message " << m;
    }
    logged += traffic->responses[m].size();
  }
  EXPECT_FALSE(traffic->responses.back().empty());
  EXPECT_EQ(result.response.size(), logged);
  EXPECT_GT(logged, session::kMaxSessionMessages * alone.size());
}

TEST(InjectTcp, RepliesLargerThanTheSocketBuffersDoNotDeadlock) {
  // The kTcp client must drain replies before the server finishes the
  // session. The demo answers each bulk read (function 0x41) as soon as it
  // has read it, here with 48 KiB: 256 of them at the front of the stream
  // are 12 MiB of answers, more than the client's receive buffer and the
  // demo's send buffer hold together. The demo therefore blocks in write
  // until the client reads, with the ~1 MiB of requests after the frames
  // (the same read repeated past kMaxSessionStreamBytes, the raw tail)
  // still unread, and cannot complete the session. A client that waited
  // for the completion before reading would sit out the session deadline.
  // (On Linux loopback the client's send buffer holds the whole 1 MiB
  // stream, so its sends complete whether or not it reads meanwhile.)
  constexpr std::size_t kAnswerBytes = 48 * 1024;
  const Bytes bulk_read = {0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x11, 0x41,
                           static_cast<std::uint8_t>(kAnswerBytes >> 8),
                           static_cast<std::uint8_t>(kAnswerBytes & 0xFF)};
  Bytes stream;
  while (stream.size() <= session::kMaxSessionStreamBytes) {
    append(stream, ByteSpan(bulk_read));
  }
  // The demo's answer: the request's ids and unit, its length, function
  // 0x41, then byte i = i mod 256.
  Bytes answer = {0x00, 0x01, 0x00, 0x00,
                  static_cast<std::uint8_t>((kAnswerBytes + 2) >> 8),
                  static_cast<std::uint8_t>((kAnswerBytes + 2) & 0xFF),
                  0x11, 0x41};
  for (std::size_t i = 0; i < kAnswerBytes; ++i) {
    answer.push_back(static_cast<std::uint8_t>(i));
  }

  fuzz::ExecutorConfig tcp_config;
  tcp_config.backend.kind = fuzz::BackendKind::kTcp;
  tcp_config.backend.target_cmd = demo_cmd();
  tcp_config.backend.target_cmd.push_back("--serve");
  tcp_config.backend.preload = preload_path();
  tcp_config.backend.exec_timeout_ms = kGenerousTimeoutMs;
  tcp_config.backend.session.framing = session::Framing::kMbap;
  tcp_config.backend.session.record_traffic = true;
  tcp_config.hang_event_budget = std::uint64_t{1} << 40;
  fuzz::Executor tcp(std::move(tcp_config));
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();

  const auto start = std::chrono::steady_clock::now();
  const fuzz::ExecResult& result = tcp.run(*placeholder, ByteSpan(stream));
  const std::int64_t waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, kGenerousTimeoutMs);
  ASSERT_TRUE(result.faults.empty()) << result.faults.front().detail;
  EXPECT_EQ(result.session_messages, session::kMaxSessionMessages + 1);
  const session::SessionTraffic* traffic = tcp.backend().traffic();
  ASSERT_NE(traffic, nullptr);
  ASSERT_EQ(traffic->responses.size(), session::kMaxSessionMessages + 1);
  for (std::size_t m = 0; m < session::kMaxSessionMessages; ++m) {
    ASSERT_EQ(traffic->responses[m], answer) << "message " << m;
  }
  EXPECT_FALSE(traffic->responses.back().empty());
  EXPECT_GT(result.response.size(),
            session::kMaxSessionMessages * answer.size());
}

TEST(InjectTcp, ServerExitMidSessionIsALostServerAsOnTheShim) {
  // ICSFUZZ_SHIM_SERVER_EXIT_AT=2: both session servers claim their
  // sessions through the shared runtime's oop::SlotLifecycle, so each exits
  // 9 on claiming its 2nd session, with the client connected. The client
  // classifies the death by its wait status, and the next session runs on
  // a respawned server.
  fuzz::ExecutorConfig demo_config;
  demo_config.backend.kind = fuzz::BackendKind::kTcp;
  demo_config.backend.target_cmd = demo_cmd();
  demo_config.backend.target_cmd.push_back("--serve");
  demo_config.backend.preload = preload_path();
  demo_config.backend.exec_timeout_ms = kGenerousTimeoutMs;
  demo_config.backend.session.framing = session::Framing::kMbap;
  fuzz::ExecutorConfig shim_config = demo_config;
  shim_config.backend.target_cmd = test::shim_tcp_cmd("libmodbus");
  shim_config.backend.preload.clear();

  ScopedEnv knob("ICSFUZZ_SHIM_SERVER_EXIT_AT", "2");
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  for (fuzz::ExecutorConfig& config : {std::ref(shim_config),
                                       std::ref(demo_config)}) {
    SCOPED_TRACE(config.backend.target_cmd.front());
    fuzz::Executor executor(config);
    for (int i = 1; i <= 3; ++i) {
      const fuzz::ExecResult& result = executor.run(*placeholder, kBenign);
      if (i != 2) {
        EXPECT_FALSE(result.crashed()) << "session " << i;
        continue;
      }
      ASSERT_TRUE(result.crashed()) << "session " << i;
      EXPECT_EQ(result.faults[0].site, san::site_id("oop-child-terminated"));
      EXPECT_NE(result.faults[0].detail.find("code 9"), std::string::npos)
          << result.faults[0].detail;
    }
    const oop::TargetProcess* process = executor.backend().target_process();
    ASSERT_NE(process, nullptr);
    EXPECT_EQ(process->tallies().restarts, 1u);
  }
}

}  // namespace
}  // namespace icsfuzz
