// Session-layer suite: the in-process vs over-TCP differential session
// oracle, the stateful coverage proof, and the session template plumbing.
//
// The load-bearing properties, asserted rather than eyeballed:
//
//   * Differential oracle — the SAME session stream executed by the
//     in-process session backend and by the kTcp backend (driving a real
//     `icsfuzz-shim-target --tcp` server over a loopback socket) yields
//     byte-identical per-message traffic and bit-identical coverage:
//     trace hash, edge counts, events, faults, responses, session states,
//     accumulated map, path set. A fixed-seed fuzzing campaign over TCP
//     therefore reproduces the in-process campaign's trajectory exactly.
//   * Stateful coverage — a fixed-seed stateful IEC 104 campaign reaches
//     hashed session states (the post-STARTDT ASDU handling chain) that a
//     stateless single-exchange baseline campaign structurally never
//     produces (plain backends carry no session fields at all).
//   * Session pits — pits/iec104_session.xml and pits/mms_session.xml
//     mirror the built-in templates step-for-step; malformed session pit
//     documents are rejected with diagnostics, never half-parsed.
//   * Checkpoint/resume — reached session states survive the Fuzzer
//     checkpoint round trip and the supervise on-disk format ("sstates"),
//     and a restored campaign continues bit-for-bit.
//   * Sync wait — the client's blocking wait on the sync block's wake word,
//     run across fork() on a real shm segment: a publish wakes it, a stale
//     wake value never blocks, a silent server costs exactly the deadline,
//     and a server that dies without publishing is noticed within a few
//     wait slices.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/shm_segment.hpp"
#include "exec_oop/target_process.hpp"
#include "exec_oop/wake_word.hpp"

#include "fuzzer/fuzzer.hpp"
#include "fuzzer/instantiator.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "session/framing.hpp"
#include "session/sequencer.hpp"
#include "session/session_state.hpp"
#include "session/session_types.hpp"
#include "session/session_wire.hpp"
#include "supervise/checkpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/test_support.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

using test::shim_tcp_cmd;

/// Generous per-exec deadline: a scheduler stall on a loaded CI runner
/// must not inject a spurious Hang fault into a bit-identity comparison.
constexpr int kGenerousTimeoutMs = 30000;

/// IEC 104 choreography bytes (mirror iec104_server.cpp).
const Bytes kStartDtAct = {0x68, 0x04, 0x07, 0x00, 0x00, 0x00};
const Bytes kStartDtCon = {0x68, 0x04, 0x0B, 0x00, 0x00, 0x00};
/// Global interrogation I-frame, N(S)=N(R)=0: type C_IC_NA_1 (100),
/// COT activation, common address 1, IOA 0, QOI 20 — the post-STARTDT
/// request the server answers with an I-format burst.
const Bytes kInterrogation = {0x68, 0x0E, 0x00, 0x00, 0x00, 0x00,
                              0x64, 0x01, 0x06, 0x00, 0x01, 0x00,
                              0x00, 0x00, 0x00, 0x14};

/// FNV-1a of ICSFUZZ_STRESS_SEED (0 when unset): the CI fault-stress lane
/// varies campaign shape per round through this.
std::uint64_t stress_hash() {
  const char* stress = std::getenv("ICSFUZZ_STRESS_SEED");
  if (stress == nullptr) return 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = stress; *c != '\0'; ++c) {
    hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
  }
  return hash;
}

session::SequencerConfig sequencer_config(const std::string& project) {
  session::SequencerConfig config;
  config.enabled = true;
  config.framing = session::framing_for_project(project);
  config.project = project;
  return config;
}

/// ExecutorConfig for a session backend over `project`.
fuzz::ExecutorConfig session_executor_config(const std::string& project,
                                             fuzz::BackendKind kind,
                                             bool record_traffic) {
  fuzz::ExecutorConfig config;
  config.backend.kind = kind;
  config.backend.session.framing = session::framing_for_project(project);
  config.backend.session.record_traffic = record_traffic;
  config.backend.exec_timeout_ms = kGenerousTimeoutMs;
  if (kind != fuzz::BackendKind::kInProcess) {
    config.backend.target_cmd = shim_tcp_cmd(project);
  }
  return config;
}

/// Owns the pit set + instantiator a SessionSequencer borrows.
struct SequencerRig {
  model::DataModelSet models;
  fuzz::ModelInstantiator instantiator;
  session::SessionSequencer sequencer;

  explicit SequencerRig(const std::string& project)
      : models(pits::pit_for_project(project)),
        instantiator(),
        sequencer(sequencer_config(project), models, instantiator) {}
};

/// Deterministic mixed workload for the differential oracle: sequencer
/// streams (both arms split them into multi-message sessions) plus the
/// adversarial shapes — empty stream, unframeable junk, a torn frame, a
/// tiny-frame flood past the message cap.
std::vector<Bytes> differential_streams(const std::string& project,
                                        std::size_t generated) {
  SequencerRig rig(project);
  Rng rng(0x5E55A10 + project.size());
  std::vector<Bytes> streams;
  Bytes out;
  for (std::size_t i = 0; i < generated; ++i) {
    rig.sequencer.generate_into(rng, out);
    streams.push_back(out);
  }
  streams.push_back({});                              // empty session
  streams.push_back({0x00, 0x01, 0x02, 0x03});        // unframeable junk
  Bytes torn = kStartDtAct;
  torn.resize(4);                                      // mid-frame cut
  streams.push_back(std::move(torn));
  Bytes flood;
  for (int i = 0; i < 300; ++i) {                      // past the 256 cap
    flood.push_back(0x68);
    flood.push_back(0x00);
  }
  streams.push_back(std::move(flood));
  return streams;
}

void expect_results_equal(const fuzz::ExecResult& in_proc,
                          const fuzz::ExecResult& tcp, std::size_t index) {
  EXPECT_EQ(in_proc.trace_hash, tcp.trace_hash) << "stream " << index;
  EXPECT_EQ(in_proc.trace_edges, tcp.trace_edges) << "stream " << index;
  EXPECT_EQ(in_proc.new_coverage, tcp.new_coverage) << "stream " << index;
  EXPECT_EQ(in_proc.new_path, tcp.new_path) << "stream " << index;
  EXPECT_EQ(in_proc.events, tcp.events) << "stream " << index;
  EXPECT_EQ(in_proc.response, tcp.response) << "stream " << index;
  EXPECT_EQ(in_proc.session_messages, tcp.session_messages)
      << "stream " << index;
  EXPECT_EQ(in_proc.session_states, tcp.session_states) << "stream " << index;
  ASSERT_EQ(in_proc.faults.size(), tcp.faults.size()) << "stream " << index;
  for (std::size_t f = 0; f < in_proc.faults.size(); ++f) {
    EXPECT_EQ(in_proc.faults[f].kind, tcp.faults[f].kind)
        << "stream " << index << " fault " << f;
    EXPECT_EQ(in_proc.faults[f].site, tcp.faults[f].site)
        << "stream " << index << " fault " << f;
    EXPECT_EQ(in_proc.faults[f].detail, tcp.faults[f].detail)
        << "stream " << index << " fault " << f;
  }
}

void expect_traffic_equal(const session::SessionTraffic* in_proc,
                          const session::SessionTraffic* tcp,
                          std::size_t index) {
  ASSERT_NE(in_proc, nullptr) << "stream " << index;
  ASSERT_NE(tcp, nullptr) << "stream " << index;
  ASSERT_EQ(in_proc->requests.size(), tcp->requests.size())
      << "stream " << index;
  ASSERT_EQ(in_proc->responses.size(), tcp->responses.size())
      << "stream " << index;
  for (std::size_t m = 0; m < in_proc->requests.size(); ++m) {
    EXPECT_EQ(in_proc->requests[m], tcp->requests[m])
        << "stream " << index << " request " << m;
    EXPECT_EQ(in_proc->responses[m], tcp->responses[m])
        << "stream " << index << " response " << m;
  }
}

// -- Sequencer sanity. ----------------------------------------------------

TEST(SessionSequencer, GeneratesFramedMultiMessageStreams) {
  SequencerRig rig("IEC104");
  Rng rng(42);
  Bytes stream;
  std::vector<session::MessageRange> ranges;
  bool saw_startdt = false;
  bool saw_multi = false;
  for (int i = 0; i < 64; ++i) {
    rig.sequencer.generate_into(rng, stream);
    ASSERT_FALSE(stream.empty()) << "round " << i;
    ASSERT_LE(stream.size(), session::kMaxSessionStreamBytes);
    const std::size_t residue = session::split_stream(
        session::Framing::kApci, ByteSpan(stream.data(), stream.size()),
        ranges);
    ASSERT_GE(ranges.size(), 1u) << "round " << i;
    (void)residue;
    if (ranges.size() > 1) saw_multi = true;
    if (stream.size() >= kStartDtAct.size() &&
        std::equal(kStartDtAct.begin(), kStartDtAct.end(), stream.begin())) {
      saw_startdt = true;
    }
  }
  EXPECT_TRUE(saw_multi) << "no multi-message session in 64 rounds";
  EXPECT_TRUE(saw_startdt) << "no STARTDT-led session in 64 rounds";
}

TEST(SessionSequencer, MutateStreamPreservesFramedShape) {
  SequencerRig rig("IEC104");
  Rng rng(77);
  Bytes seed;
  rig.sequencer.generate_into(rng, seed);
  Bytes mutated;
  std::vector<session::MessageRange> ranges;
  for (int i = 0; i < 64; ++i) {
    rig.sequencer.mutate_stream_into(ByteSpan(seed.data(), seed.size()), rng,
                                     mutated);
    ASSERT_LE(mutated.size(), session::kMaxSessionStreamBytes);
    // A mutated stream stays splittable (possibly with a residue tail —
    // truncate-mid-message is one of the mutations).
    session::split_stream(session::Framing::kApci,
                          ByteSpan(mutated.data(), mutated.size()), ranges);
  }
}

// -- The per-execution differential oracle. -------------------------------

#ifdef ICSFUZZ_SHIM_PATH

void run_differential_oracle(
    const std::string& project,
    cov::simd::Kernel kernel = cov::simd::Kernel::kAuto) {
  const std::vector<Bytes> streams = differential_streams(project, 24);
  const auto factory = proto::target_factory(project);
  ASSERT_TRUE(factory) << project;
  std::unique_ptr<ProtocolTarget> in_proc_target = factory();
  std::unique_ptr<ProtocolTarget> placeholder = factory();

  fuzz::ExecutorConfig in_proc_config = session_executor_config(
      project, fuzz::BackendKind::kInProcess, /*record_traffic=*/true);
  fuzz::ExecutorConfig tcp_config = session_executor_config(
      project, fuzz::BackendKind::kTcp, /*record_traffic=*/true);
  in_proc_config.coverage_kernel = kernel;
  tcp_config.coverage_kernel = kernel;
  fuzz::Executor in_proc(in_proc_config);
  fuzz::Executor tcp(tcp_config);

  for (std::size_t i = 0; i < streams.size(); ++i) {
    const ByteSpan packet(streams[i].data(), streams[i].size());
    const fuzz::ExecResult in_proc_result =
        in_proc.run(*in_proc_target, packet);
    const fuzz::ExecResult& tcp_result = tcp.run(*placeholder, packet);
    expect_results_equal(in_proc_result, tcp_result, i);
    expect_traffic_equal(in_proc.backend().traffic(), tcp.backend().traffic(),
                         i);
  }

  // Campaign-lifetime fingerprints: same accumulated map, same path set,
  // same session-state set.
  EXPECT_EQ(in_proc.executions(), tcp.executions());
  EXPECT_EQ(in_proc.edge_count(), tcp.edge_count());
  EXPECT_EQ(in_proc.path_count(), tcp.path_count());
  EXPECT_EQ(in_proc.coverage().snapshot_accumulated(),
            tcp.coverage().snapshot_accumulated());
  EXPECT_EQ(in_proc.session_states_snapshot(), tcp.session_states_snapshot());
  EXPECT_GT(in_proc.session_state_count(), 0u);
}

TEST(SessionDifferential, TcpMatchesInProcessIec104) {
  run_differential_oracle("IEC104");
}

TEST(SessionDifferential, TcpMatchesInProcessModbus) {
  run_differential_oracle("libmodbus");
}

TEST(SessionDifferential, DenseReferenceModeAlsoMatches) {
  // Both session backends route their trace through the dense full-map
  // reference passes; the in-process vs over-TCP square still commutes.
  run_differential_oracle("IEC104", cov::simd::Kernel::kDense);
}

TEST(SessionDifferential, CompletedSessionsAdoptFromThePublishedDirtyList) {
  // The --tcp server publishes each session's dirty-word list: no
  // completed session needs the full-map scan, except on the kDense
  // oracle, which takes it every time.
  const std::vector<Bytes> streams = differential_streams("IEC104", 12);
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("IEC104")();
  for (const cov::simd::Kernel kernel :
       {cov::simd::Kernel::kAuto, cov::simd::Kernel::kDense}) {
    SCOPED_TRACE(cov::simd::kernel_name(kernel));
    telem::Telemetry hub;
    fuzz::ExecutorConfig config =
        session_executor_config("IEC104", fuzz::BackendKind::kTcp,
                                /*record_traffic=*/false);
    config.coverage_kernel = kernel;
    config.telemetry = telem::Sink(&hub, 0);
    fuzz::Executor tcp(config);
    for (const Bytes& stream : streams) tcp.run(*placeholder, stream);
    EXPECT_EQ(hub.snapshot().counter(telem::Counter::kOopAdoptFullScans),
              kernel == cov::simd::Kernel::kDense ? streams.size() : 0u);
  }
}

/// TCP connections in TIME_WAIT (state 06 in /proc/net/tcp) with `port`
/// at either end.
std::size_t time_wait_rows(std::uint32_t port) {
  std::ifstream table("/proc/net/tcp");
  std::string line;
  std::getline(table, line);  // header
  const auto port_of = [](const std::string& address) {
    return std::stoul(address.substr(address.find(':') + 1), nullptr, 16);
  };
  std::size_t rows = 0;
  while (std::getline(table, line)) {
    std::istringstream fields(line);
    std::string slot, local, remote, state;
    fields >> slot >> local >> remote >> state;
    if (state == "06" && (port_of(local) == port || port_of(remote) == port)) {
      ++rows;
    }
  }
  return rows;
}

TEST(SessionTeardown, CompletedSessionsLeaveNoTimeWait) {
  // The client half-closes first, so an orderly close by the server would
  // move the client's end of every session into TIME_WAIT; the server
  // resets the connection once the session is published instead.
  constexpr int kSessions = 20;
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("IEC104")();
  fuzz::Executor tcp(session_executor_config(
      "IEC104", fuzz::BackendKind::kTcp, /*record_traffic=*/false));
  for (int i = 0; i < kSessions; ++i) {
    const fuzz::ExecResult& result = tcp.run(*placeholder, kStartDtAct);
    ASSERT_TRUE(result.faults.empty()) << "session " << i;
    ASSERT_FALSE(result.response.empty()) << "session " << i;
  }
  const oop::TargetProcess* process = tcp.backend().target_process();
  ASSERT_NE(process, nullptr);
  ASSERT_NE(process->hello_word(), 0u);
  EXPECT_EQ(time_wait_rows(process->hello_word()), 0u);
}

TEST(SessionDifferential, FixedSeedCampaignTrajectoryIdenticalOverTcp) {
  struct Fingerprint {
    std::uint64_t executions = 0;
    std::size_t paths = 0;
    std::size_t edges = 0;
    std::size_t crashes = 0;
    std::vector<Bytes> retained;
    std::vector<std::uint64_t> session_states;
    std::vector<std::uint8_t> accumulated;
  };
  const auto run_campaign = [](fuzz::BackendKind kind) {
    const std::string project = "IEC104";
    fuzz::FuzzerConfig config;
    config.rng_seed = 0x5E55;
    config.stats_interval = 50;
    config.session = sequencer_config(project);
    config.executor =
        session_executor_config(project, kind, /*record_traffic=*/false);
    config.telemetry = telem::Sink();
    const auto factory = proto::target_factory(project);
    std::unique_ptr<ProtocolTarget> target = factory();
    const model::DataModelSet models = pits::pit_for_project(project);
    fuzz::Fuzzer fuzzer(*target, models, config);
    fuzzer.run(120);
    Fingerprint fp;
    fp.executions = fuzzer.executor().executions();
    fp.paths = fuzzer.path_count();
    fp.edges = fuzzer.executor().edge_count();
    fp.crashes = fuzzer.crashes().unique_count();
    for (const fuzz::RetainedSeed& seed : fuzzer.retained_seeds()) {
      fp.retained.push_back(seed.bytes);
    }
    fp.session_states = fuzzer.executor().session_states_snapshot();
    fp.accumulated = fuzzer.executor().coverage().snapshot_accumulated();
    return fp;
  };

  const Fingerprint in_proc = run_campaign(fuzz::BackendKind::kInProcess);
  const Fingerprint tcp = run_campaign(fuzz::BackendKind::kTcp);
  EXPECT_EQ(in_proc.executions, tcp.executions);
  EXPECT_EQ(in_proc.paths, tcp.paths);
  EXPECT_EQ(in_proc.edges, tcp.edges);
  EXPECT_EQ(in_proc.crashes, tcp.crashes);
  EXPECT_EQ(in_proc.retained, tcp.retained);
  EXPECT_EQ(in_proc.session_states, tcp.session_states);
  EXPECT_EQ(in_proc.accumulated, tcp.accumulated);
  EXPECT_GT(in_proc.session_states.size(), 0u);
}

TEST(SessionDifferential, FullDuplexMaxSessionDoesNotDeadlock) {
  // 256 Modbus max-register reads fill the message cap; the same read
  // repeated past kMaxSessionStreamBytes is the raw tail. The 1 MiB
  // request stream outgrows the loopback socket buffers, so the client's
  // send loop must interleave with the server's reads, and the replies
  // (~68 KiB of 259-byte responses, the most any in-tree target answers
  // to one session) arrive while it is still sending. The session must
  // complete inside the deadline and match the in-process arm exactly.
  const Bytes read_max = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                          0x11, 0x03, 0x00, 0x00, 0x00, 0x7D};
  Bytes stream;
  while (stream.size() <= session::kMaxSessionStreamBytes) {
    append(stream, ByteSpan(read_max));
  }
  const ByteSpan packet(stream.data(), stream.size());

  const std::string project = "libmodbus";
  constexpr int kDeadlineMs = 10000;
  fuzz::ExecutorConfig in_proc_config = session_executor_config(
      project, fuzz::BackendKind::kInProcess, /*record_traffic=*/true);
  fuzz::ExecutorConfig tcp_config = session_executor_config(
      project, fuzz::BackendKind::kTcp, /*record_traffic=*/true);
  tcp_config.backend.exec_timeout_ms = kDeadlineMs;
  fuzz::Executor in_proc(in_proc_config);
  fuzz::Executor tcp(tcp_config);
  const auto factory = proto::target_factory(project);
  std::unique_ptr<ProtocolTarget> in_proc_target = factory();
  std::unique_ptr<ProtocolTarget> placeholder = factory();

  const fuzz::ExecResult in_proc_result = in_proc.run(*in_proc_target, packet);
  const auto start = std::chrono::steady_clock::now();
  const fuzz::ExecResult& tcp_result = tcp.run(*placeholder, packet);
  const std::int64_t waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, kDeadlineMs);
  EXPECT_TRUE(tcp_result.faults.empty()) << "the session did not complete";
  EXPECT_EQ(in_proc_result.session_messages,
            session::kMaxSessionMessages + 1);
  EXPECT_GT(in_proc_result.response.size(), std::size_t{256} * 259);
  expect_results_equal(in_proc_result, tcp_result, 0);
  expect_traffic_equal(in_proc.backend().traffic(), tcp.backend().traffic(),
                       0);
}

#endif  // ICSFUZZ_SHIM_PATH

// -- Stateful coverage: the post-STARTDT proof. ---------------------------

TEST(SessionState, PostStartdtAsduHandlingNeedsTheHandshake) {
  const std::string project = "IEC104";
  const auto factory = proto::target_factory(project);
  std::unique_ptr<ProtocolTarget> target = factory();
  fuzz::Executor executor(session_executor_config(
      project, fuzz::BackendKind::kInProcess, /*record_traffic=*/true));

  // STARTDT then interrogation: both messages answered.
  Bytes with_handshake = kStartDtAct;
  with_handshake.insert(with_handshake.end(), kInterrogation.begin(),
                        kInterrogation.end());
  const fuzz::ExecResult with_result = executor.run(
      *target, ByteSpan(with_handshake.data(), with_handshake.size()));
  ASSERT_EQ(with_result.session_messages, 2u);
  ASSERT_EQ(with_result.session_states.size(), 2u);
  const session::SessionTraffic* traffic = executor.backend().traffic();
  ASSERT_NE(traffic, nullptr);
  ASSERT_EQ(traffic->responses.size(), 2u);
  EXPECT_EQ(traffic->responses[0], kStartDtCon);
  EXPECT_FALSE(traffic->responses[1].empty())
      << "post-STARTDT interrogation must be answered";

  // The state chain is exactly the documented client-side fold.
  const session::ResponseClass class0 = session::classify_response(
      session::Framing::kApci,
      ByteSpan(traffic->responses[0].data(), traffic->responses[0].size()));
  EXPECT_EQ(class0, session::ResponseClass::kApciU);
  const std::uint32_t state0 = session::next_session_state(
      session::kInitialSessionState, class0, 0);
  EXPECT_EQ(with_result.session_states[0], state0);
  const session::ResponseClass class1 = session::classify_response(
      session::Framing::kApci,
      ByteSpan(traffic->responses[1].data(), traffic->responses[1].size()));
  const std::uint32_t state1 =
      session::next_session_state(state0, class1, 1);
  EXPECT_EQ(with_result.session_states[1], state1);

  // The same interrogation without the handshake is dropped on the floor
  // (started_ gate), producing a DIFFERENT state chain.
  const fuzz::ExecResult without_result = executor.run(
      *target, ByteSpan(kInterrogation.data(), kInterrogation.size()));
  ASSERT_EQ(without_result.session_messages, 1u);
  traffic = executor.backend().traffic();
  ASSERT_EQ(traffic->responses.size(), 1u);
  EXPECT_TRUE(traffic->responses[0].empty())
      << "I-frame before STARTDT must be dropped";
  EXPECT_NE(without_result.session_states[0], state0);
}

TEST(SessionState, StatefulCampaignReachesStatesStatelessNeverProduces) {
  const std::string project = "IEC104";
  const auto factory = proto::target_factory(project);
  const model::DataModelSet models = pits::pit_for_project(project);

  // Canonical marker: the hashed state after a STARTDT_act handshake at
  // position 0 — the root of every post-STARTDT session chain.
  std::uint32_t marker = 0;
  {
    std::unique_ptr<ProtocolTarget> target = factory();
    fuzz::Executor probe(session_executor_config(
        project, fuzz::BackendKind::kInProcess, /*record_traffic=*/false));
    const fuzz::ExecResult& result =
        probe.run(*target, ByteSpan(kStartDtAct.data(), kStartDtAct.size()));
    ASSERT_EQ(result.session_states.size(), 1u);
    marker = result.session_states[0];
  }

  // The CI stress lane perturbs the seed and depth per round; the
  // stateful-reaches-marker property must hold across all of them.
  const std::uint64_t perturb = stress_hash();
  const std::uint64_t seed = 0x104u ^ perturb;
  const std::uint64_t iterations = 350 + (perturb % 128);

  // Fixed-seed stateful campaign: session generation + session execution.
  fuzz::FuzzerConfig stateful;
  stateful.rng_seed = seed;
  stateful.session = sequencer_config(project);
  stateful.executor = session_executor_config(
      project, fuzz::BackendKind::kInProcess, /*record_traffic=*/false);
  stateful.telemetry = telem::Sink();
  std::unique_ptr<ProtocolTarget> stateful_target = factory();
  fuzz::Fuzzer stateful_fuzzer(*stateful_target, models, stateful);
  stateful_fuzzer.run(iterations);
  EXPECT_GT(stateful_fuzzer.executor().session_state_count(), 0u);
  EXPECT_TRUE(stateful_fuzzer.executor().session_state_reached(marker))
      << "no session reached the post-STARTDT root state in " << iterations
      << " iterations (seed " << seed << ")";

  // Stateless baseline, same seed and depth: single-exchange executions
  // structurally carry no session states — not few, none.
  fuzz::FuzzerConfig stateless;
  stateless.rng_seed = seed;
  stateless.telemetry = telem::Sink();
  std::unique_ptr<ProtocolTarget> stateless_target = factory();
  fuzz::Fuzzer stateless_fuzzer(*stateless_target, models, stateless);
  stateless_fuzzer.run(iterations);
  EXPECT_EQ(stateless_fuzzer.executor().session_state_count(), 0u);
  EXPECT_FALSE(stateless_fuzzer.executor().session_state_reached(marker));
}

// -- Session pit parsing. -------------------------------------------------

void expect_templates_equal(const std::vector<session::SessionTemplate>& a,
                            const std::vector<session::SessionTemplate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].name, b[t].name) << "template " << t;
    EXPECT_EQ(a[t].project, b[t].project) << "template " << t;
    ASSERT_EQ(a[t].steps.size(), b[t].steps.size()) << a[t].name;
    for (std::size_t s = 0; s < a[t].steps.size(); ++s) {
      EXPECT_EQ(a[t].steps[s].kind, b[t].steps[s].kind)
          << a[t].name << " step " << s;
      EXPECT_EQ(a[t].steps[s].literal, b[t].steps[s].literal)
          << a[t].name << " step " << s;
      EXPECT_EQ(a[t].steps[s].model, b[t].steps[s].model)
          << a[t].name << " step " << s;
      EXPECT_EQ(a[t].steps[s].min_repeat, b[t].steps[s].min_repeat)
          << a[t].name << " step " << s;
      EXPECT_EQ(a[t].steps[s].max_repeat, b[t].steps[s].max_repeat)
          << a[t].name << " step " << s;
    }
  }
}

TEST(SessionPits, Iec104SessionPitMirrorsBuiltins) {
  std::vector<session::SessionTemplate> parsed;
  std::string error;
  ASSERT_TRUE(session::parse_session_templates_file(
      std::string(ICSFUZZ_PITS_DIR) + "/iec104_session.xml", parsed, error))
      << error;
  expect_templates_equal(parsed, session::builtin_session_templates("IEC104"));
}

TEST(SessionPits, MmsSessionPitMirrorsBuiltins) {
  std::vector<session::SessionTemplate> parsed;
  std::string error;
  ASSERT_TRUE(session::parse_session_templates_file(
      std::string(ICSFUZZ_PITS_DIR) + "/mms_session.xml", parsed, error))
      << error;
  expect_templates_equal(parsed,
                         session::builtin_session_templates("libiec61850"));
}

TEST(SessionPits, MalformedDocumentsAreRejectedWithDiagnostics) {
  const char* kBad[] = {
      // Wrong root element.
      "<Peach><Session name='x'><Model/></Session></Peach>",
      // Session without a name.
      "<Sessions><Session><Model/></Session></Sessions>",
      // Odd hex digit count in a literal.
      "<Sessions><Session name='x'><Literal hex='68 0'/></Session></Sessions>",
      // Literal without hex.
      "<Sessions><Session name='x'><Literal/></Session></Sessions>",
      // min > max.
      "<Sessions><Session name='x'><Model min='3' max='1'/></Session>"
      "</Sessions>",
      // min == 0.
      "<Sessions><Session name='x'><Model min='0' max='1'/></Session>"
      "</Sessions>",
      // Non-numeric repeat bound.
      "<Sessions><Session name='x'><Model min='lots'/></Session></Sessions>",
      // Trailing garbage, not 2.
      "<Sessions><Session name='x'><Model min='2x' max='3'/></Session>"
      "</Sessions>",
      // 2^32 + 1 does not wrap to 1.
      "<Sessions><Session name='x'><Model max='4294967297'/></Session>"
      "</Sessions>",
      // A negative bound does not wrap to 4294967295.
      "<Sessions><Session name='x'><Model max='-1'/></Session></Sessions>",
      // An empty bound.
      "<Sessions><Session name='x'><Model min=''/></Session></Sessions>",
      // Unknown step element.
      "<Sessions><Session name='x'><Blob/></Session></Sessions>",
      // Session with no steps.
      "<Sessions><Session name='x'></Session></Sessions>",
      // No sessions at all.
      "<Sessions></Sessions>",
  };
  for (const char* doc : kBad) {
    std::vector<session::SessionTemplate> out;
    std::string error;
    EXPECT_FALSE(session::parse_session_templates(doc, out, error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

// -- Checkpoint/resume with session states. -------------------------------

fuzz::FuzzerConfig stateful_config(std::uint64_t seed) {
  fuzz::FuzzerConfig config;
  config.rng_seed = seed;
  config.stats_interval = 100;
  config.session = sequencer_config("IEC104");
  config.executor = session_executor_config(
      "IEC104", fuzz::BackendKind::kInProcess, /*record_traffic=*/false);
  config.telemetry = telem::Sink();
  return config;
}

TEST(SessionCheckpoint, FuzzerRoundTripPreservesSessionStates) {
  const auto factory = proto::target_factory("IEC104");
  const model::DataModelSet models = pits::pit_for_project("IEC104");

  std::unique_ptr<ProtocolTarget> original_target = factory();
  fuzz::Fuzzer original(*original_target, models, stateful_config(11));
  original.run(160);
  const fuzz::FuzzerCheckpoint checkpoint = original.capture_checkpoint();
  ASSERT_FALSE(checkpoint.session_states.empty());
  EXPECT_TRUE(std::is_sorted(checkpoint.session_states.begin(),
                             checkpoint.session_states.end()));
  EXPECT_EQ(checkpoint.session_states,
            original.executor().session_states_snapshot());

  std::unique_ptr<ProtocolTarget> resumed_target = factory();
  fuzz::Fuzzer resumed(*resumed_target, models, stateful_config(11));
  resumed.restore_checkpoint(checkpoint);
  EXPECT_EQ(resumed.executor().session_states_snapshot(),
            original.executor().session_states_snapshot());

  // Both continue; the resumed campaign tracks the original bit-for-bit,
  // session-state set included.
  original.run(140);
  resumed.run(140);
  EXPECT_EQ(resumed.executor().executions(),
            original.executor().executions());
  EXPECT_EQ(resumed.path_count(), original.path_count());
  EXPECT_EQ(resumed.executor().edge_count(),
            original.executor().edge_count());
  EXPECT_EQ(resumed.executor().session_states_snapshot(),
            original.executor().session_states_snapshot());
  EXPECT_EQ(resumed.executor().coverage().snapshot_accumulated(),
            original.executor().coverage().snapshot_accumulated());
}

TEST(SessionCheckpoint, SupervisorFormatRoundTripsSessionStates) {
  supervise::CampaignCheckpoint checkpoint;
  checkpoint.completed_iterations = 500;
  checkpoint.base_seed = 7;
  checkpoint.iterations_per_worker = 1000;
  checkpoint.sync_interval = 100;
  par::WorkerState worker;
  worker.fuzzer.session_states = {0x11u, 0x5E551011u, 0xFFFFFFFFu};
  worker.cursor_next = {0};
  checkpoint.workers.push_back(std::move(worker));

  const std::string text = supervise::serialize_checkpoint(checkpoint);
  EXPECT_NE(text.find("sstates"), std::string::npos);
  const std::optional<supervise::CampaignCheckpoint> parsed =
      supervise::parse_checkpoint(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->workers.size(), 1u);
  EXPECT_EQ(parsed->workers[0].fuzzer.session_states,
            checkpoint.workers[0].fuzzer.session_states);

  // Older images carry an older version tag and must be rejected
  // outright, never resumed with a silently empty state set. The tag is
  // read from the image header: "icsfuzz-checkpoint v<N>\n".
  const std::string magic = "icsfuzz-checkpoint v";
  ASSERT_EQ(text.rfind(magic, 0), 0u);
  const std::size_t newline = text.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const int version =
      std::stoi(text.substr(magic.size(), newline - magic.size()));
  ASSERT_GE(version, 3);
  std::string downgraded = text;
  downgraded.replace(0, newline, magic + std::to_string(version - 1));
  EXPECT_FALSE(supervise::parse_checkpoint(downgraded).has_value());

  // A v2 image — session states, but decimal dedup lists — is rejected
  // too, not misread as hex.
  std::string v2 = downgraded;
  v2.replace(0, v2.find('\n'), magic + "2");
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"dcur -", "dcur 2 5 7"},
        std::pair<std::string, std::string>{"dprev -", "dprev 1 9"}}) {
    const std::size_t at = v2.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    v2.replace(at, from.size(), to);
  }
  EXPECT_FALSE(supervise::parse_checkpoint(v2).has_value());
}

// ------------------------------------------------- shm-size env validation

/// Spawns `icsfuzz-shim-target --tcp` with the given shm env pair and
/// returns its exit code (-1 on abnormal termination). The server must
/// reject a bad size before it ever mmaps.
int spawn_tcp_server_with_shm_env(const char* name, const char* size) {
  const pid_t child = ::fork();
  if (child == 0) {
    ::setenv(oop::kShmNameEnv, name, 1);
    ::setenv(oop::kShmSizeEnv, size, 1);
    ::execl(ICSFUZZ_SHIM_PATH, ICSFUZZ_SHIM_PATH, "--project", "libmodbus",
            "--tcp", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int wstatus = 0;
  while (::waitpid(child, &wstatus, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

TEST(SessionTcpServer, RejectsMalformedShmSizeEnv) {
  // Regression for the strtoull trust hole: a size like "131072stray"
  // used to parse as 131072 and reach the mmap; garbage became 0. All of
  // these must now exit through the no-usable-segment code (3) up front.
  EXPECT_EQ(spawn_tcp_server_with_shm_env("/icsfuzz-test-none", "banana"), 3);
  EXPECT_EQ(spawn_tcp_server_with_shm_env("/icsfuzz-test-none", ""), 3);
  EXPECT_EQ(spawn_tcp_server_with_shm_env("/icsfuzz-test-none", "-131072"),
            3);
  EXPECT_EQ(spawn_tcp_server_with_shm_env("/icsfuzz-test-none", "131072stray"),
            3);
  // Zero and too-small-for-the-layout sizes.
  EXPECT_EQ(spawn_tcp_server_with_shm_env("/icsfuzz-test-none", "0"), 3);
  EXPECT_EQ(spawn_tcp_server_with_shm_env("/icsfuzz-test-none", "16"), 3);
  // Absurd sizes past the 1 GiB ceiling must never reach the mmap.
  EXPECT_EQ(spawn_tcp_server_with_shm_env("/icsfuzz-test-none",
                                          "18446744073709551615"),
            3);
  EXPECT_EQ(
      spawn_tcp_server_with_shm_env("/icsfuzz-test-none", "999999999999"), 3);
}

// ---------------------------------------------------------------- sync wait

/// A peer process sharing a TCP-session shm segment: forked, it runs
/// `body` on the segment, then blocks until killed or `_exit`s if `body`
/// returns false. Killed and reaped on destruction if still running.
class SyncPeer {
 public:
  template <typename Body>
  SyncPeer(std::uint8_t* segment, Body body) {
    pid_ = ::fork();
    if (pid_ == 0) {
      if (!body(segment)) ::_exit(3);
      for (;;) ::pause();
    }
  }
  ~SyncPeer() {
    if (pid_ <= 0 || reaped_) return;
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
  }
  SyncPeer(const SyncPeer&) = delete;
  SyncPeer& operator=(const SyncPeer&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Non-blocking reap: the backend's liveness check.
  bool dead() {
    if (!reaped_) reaped_ = ::waitpid(pid_, &wstatus_, WNOHANG) == pid_;
    return reaped_;
  }
  void reap() {
    while (!reaped_) reaped_ = ::waitpid(pid_, &wstatus_, 0) == pid_;
  }
  [[nodiscard]] int wstatus() const { return wstatus_; }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int wstatus_ = 0;
};

oop::ShmSegment sync_segment() {
  return oop::ShmSegment::create(session::kTcpSegmentBytes);
}

std::int64_t ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// The TCP client's wait on the sync block, as tcp_backend.cpp calls it.
template <typename Load, typename PeerDead>
bool wait_counter(std::uint8_t* segment, Load load, std::uint64_t expected,
                  std::uint64_t deadline_ms, PeerDead peer_dead) {
  return oop::sync_wait_counter(session::sync_wake_word(segment), load,
                                expected, deadline_ms, peer_dead,
                                oop::affinity_allows_spin());
}

TEST(SessionSyncWait, PublishAfterDelayWakesTheBlockedWaiter) {
  oop::ShmSegment shm = sync_segment();
  ASSERT_TRUE(shm.valid()) << shm.error();
  std::uint8_t* segment = shm.data();
  std::uint32_t* wake = session::sync_wake_word(segment);
  const std::uint32_t seen = oop::load_wake(wake);
  SyncPeer peer(segment, [](std::uint8_t* seg) {
    sleep_ms(50);
    session::sync_log_reset(seg);
    session::sync_log_append(seg, 7);
    session::sync_publish_session_done(seg, 1);
    return true;
  });
  ASSERT_GT(peer.pid(), 0);

  // One 10 s futex wait (re-entered only on a spurious return): ending
  // well before that needs the peer's FUTEX_WAKE.
  const auto start = std::chrono::steady_clock::now();
  while (oop::load_wake(wake) == seen && ms_since(start) < 10000) {
    oop::wait_wake(wake, seen, 10000);
  }
  const std::int64_t waited = ms_since(start);
  EXPECT_GE(waited, 40);
  EXPECT_LT(waited, 5000) << "the publish did not wake the waiter";
  EXPECT_EQ(session::sync_load_sessions_done(segment), 1u);
  EXPECT_EQ(session::sync_response_log(segment).size(), 1u);
  EXPECT_EQ(session::sync_response_log(segment)[0], 7u);

  // The next session's publish wakes the same way, through the full wait.
  SyncPeer finisher(segment, [](std::uint8_t* seg) {
    sleep_ms(50);
    session::sync_publish_session_done(seg, 2);
    return true;
  });
  ASSERT_GT(finisher.pid(), 0);
  EXPECT_TRUE(wait_counter(
      segment, [&] { return session::sync_load_sessions_done(segment); }, 2,
      oop::monotonic_ms() + 10000, [&] { return finisher.dead(); }));
}

TEST(SessionSyncWait, StaleSeenValueReturnsAtOnce) {
  oop::ShmSegment shm = sync_segment();
  ASSERT_TRUE(shm.valid()) << shm.error();
  std::uint8_t* segment = shm.data();
  std::uint32_t* wake = session::sync_wake_word(segment);
  const std::uint32_t seen = oop::load_wake(wake);
  SyncPeer peer(segment, [](std::uint8_t* seg) {
    session::sync_publish_session_done(seg, 1);
    return false;  // publish, then exit
  });
  ASSERT_GT(peer.pid(), 0);
  peer.reap();
  ASSERT_NE(oop::load_wake(wake), seen);

  const auto start = std::chrono::steady_clock::now();
  oop::wait_wake(wake, seen, 10000);
  EXPECT_LT(ms_since(start), 100) << "a moved wake word must not block";
  // A counter that already arrived is never waited for, dead peer or not.
  EXPECT_TRUE(wait_counter(
      segment, [&] { return session::sync_load_sessions_done(segment); }, 1,
      oop::monotonic_ms() + 10000, [] { return true; }));
}

TEST(SessionSyncWait, SilentPeerCostsExactlyTheDeadline) {
  oop::ShmSegment shm = sync_segment();
  ASSERT_TRUE(shm.valid()) << shm.error();
  std::uint8_t* segment = shm.data();
  SyncPeer peer(segment, [](std::uint8_t*) { return true; });  // never publishes
  ASSERT_GT(peer.pid(), 0);

  constexpr int kDeadlineMs = 200;
  const auto start = std::chrono::steady_clock::now();
  const bool arrived = wait_counter(
      segment, [&] { return session::sync_load_sessions_done(segment); }, 1,
      oop::monotonic_ms() + kDeadlineMs, [&] { return peer.dead(); });
  const std::int64_t waited = ms_since(start);
  EXPECT_FALSE(arrived);
  EXPECT_FALSE(peer.dead());
  // The deadline is on a millisecond clock: it may fall up to 1 ms early.
  EXPECT_GE(waited, kDeadlineMs - 1);
  EXPECT_LT(waited, kDeadlineMs + 150) << "the wait overshot its deadline";
}

TEST(SessionSyncWait, PeerThatExitsIsNoticedWithinAFewSlices) {
  oop::ShmSegment shm = sync_segment();
  ASSERT_TRUE(shm.valid()) << shm.error();
  std::uint8_t* segment = shm.data();
  SyncPeer peer(segment, [](std::uint8_t*) {
    sleep_ms(30);
    return false;  // dies without ever publishing
  });
  ASSERT_GT(peer.pid(), 0);

  const auto start = std::chrono::steady_clock::now();
  const bool arrived = wait_counter(
      segment, [&] { return session::sync_load_sessions_done(segment); }, 1,
      oop::monotonic_ms() + 30000, [&] { return peer.dead(); });
  const std::int64_t waited = ms_since(start);
  EXPECT_FALSE(arrived);
  ASSERT_TRUE(peer.dead());
  EXPECT_TRUE(WIFEXITED(peer.wstatus()));
  EXPECT_EQ(WEXITSTATUS(peer.wstatus()), 3);
  // 30 ms of life plus the slice that was running when it died and one
  // more; the slack absorbs a loaded runner's scheduling delay, still far
  // inside the 30 s deadline.
  EXPECT_LT(waited, 30 + 2 * oop::kSyncWaitSliceMs + 250)
      << "the death was noticed late";
}

}  // namespace
}  // namespace icsfuzz
