// Fault-injection coverage for the fork-server execution path.
//
// Every target-side server honours ICSFUZZ_SHIM_* environment knobs that
// inject deterministic failures (exec_oop/target_runtime.hpp): a child
// SIGKILLed mid-execution, a target that never handshakes, a child hanging
// into the wall-clock deadline (also inside a pipelined persistent window),
// the fork-server process itself dying, and an orderly server retirement.
// This suite drives each of them — plus an shm unlink race and a missing
// binary — across BOTH out-of-process backends (fork-per-exec and
// persistent) where the fault applies, and asserts the executor reports
// the right status while the campaign keeps running (a dying target must
// never take the fuzzer with it). The fault-plan cases run against the
// shim and, when it is built, the demo server under the preload runtime:
// a stock child per execution at K = 1, the cooperating loop at K > 1.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/oop_executor.hpp"
#include "exec_oop/shm_segment.hpp"
#include "fuzzer/fuzzer.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "protocols/target_registry.hpp"
#include "sanitizer/fault.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/test_support.hpp"

namespace icsfuzz {
namespace {

using test::ScopedEnv;
using test::shim_cmd;

/// A fork-server target the fault-plan cases run against.
struct FaultTarget {
  const char* name;
  std::vector<std::string> cmd;
  /// libicsfuzz-preload.so for a stock binary, empty for the shim.
  std::string preload;
};

/// The shim and, when built, the instrumented demo server under the
/// preload runtime — both serve through the shared target runtime.
std::vector<FaultTarget> fault_targets() {
  std::vector<FaultTarget> targets = {{"shim", shim_cmd(), ""}};
#ifdef ICSFUZZ_DEMO_SERVER_PATH
  const char* demo = std::getenv("ICSFUZZ_DEMO_SERVER");
  const char* preload = std::getenv("ICSFUZZ_PRELOAD");
  targets.push_back({"preloaded demo",
                     {demo != nullptr ? demo : ICSFUZZ_DEMO_SERVER_PATH},
                     preload != nullptr ? preload : ICSFUZZ_PRELOAD_PATH});
#endif
  return targets;
}

/// ExecutorConfig for `target` under the given out-of-process backend.
fuzz::ExecutorConfig oop_config(
    const FaultTarget& target,
    fuzz::BackendKind kind = fuzz::BackendKind::kForkPerExec) {
  fuzz::ExecutorConfig config;
  config.backend.kind = kind;
  config.backend.target_cmd = target.cmd;
  config.backend.preload = target.preload;
  return config;
}

/// ExecutorConfig for the shim under the given out-of-process backend.
fuzz::ExecutorConfig oop_config(
    fuzz::BackendKind kind = fuzz::BackendKind::kForkPerExec) {
  return oop_config(fault_targets().front(), kind);
}

/// What a fault-free execution of a target must produce. The shim's twin
/// is the in-process stack, bit for bit: trace, events and response. The
/// demo has no in-process twin, and a loop child's trace depends on its
/// iteration, so its oracle is the response of a knob-free stock run —
/// construct the reference before setting a knob: its server is spawned
/// here and keeps the plan it read at spawn.
class Reference {
 public:
  explicit Reference(const FaultTarget& target)
      : target_(proto::target_factory("libmodbus")()),
        executor_(target.preload.empty() ? fuzz::ExecutorConfig{}
                                         : oop_config(target)),
        bit_identical_(target.preload.empty()) {
    if (!bit_identical_) (void)executor_.run(*target_, kWarmUp);
  }

  /// Checks execution `i`'s clean `result` of `packet` against the
  /// reference's run of the same packet.
  void expect_match(const fuzz::ExecResult& result, const Bytes& packet,
                    int i) {
    const fuzz::ExecResult& expected = executor_.run(*target_, packet);
    EXPECT_FALSE(result.crashed()) << "execution " << i;
    EXPECT_FALSE(expected.crashed()) << "execution " << i;
    EXPECT_FALSE(expected.response.empty()) << "execution " << i;
    EXPECT_EQ(result.response, expected.response) << "execution " << i;
    if (bit_identical_) {
      EXPECT_EQ(result.trace_hash, expected.trace_hash) << "execution " << i;
      EXPECT_EQ(result.events, expected.events) << "execution " << i;
    }
  }

 private:
  static inline const Bytes kWarmUp = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
      proto::ModbusServer::kUnitId, 0x03, 0x00, 0x00, 0x00, 0x01};
  std::unique_ptr<ProtocolTarget> target_;
  fuzz::Executor executor_;
  bool bit_identical_;
};

/// Both out-of-process backend kinds (the faults below must be survivable
/// whichever transport serves the execution).
const fuzz::BackendKind kOopKinds[] = {fuzz::BackendKind::kForkPerExec,
                                       fuzz::BackendKind::kPersistent};

bool has_fault_site(const fuzz::ExecResult& result, std::uint32_t site) {
  for (const san::FaultReport& fault : result.faults) {
    if (fault.site == site) return true;
  }
  return false;
}

/// Read Holding Registers 0..9 of the stack's unit: it answers, so every
/// response compared below carries bytes.
const Bytes kPacket = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                       proto::ModbusServer::kUnitId, 0x03, 0x00, 0x00, 0x00,
                       0x0A};

TEST(ForkServerFaults, ChildKilledMidExecutionReportsCrashAndRecovers) {
  for (const FaultTarget& target : fault_targets()) {
    for (const fuzz::BackendKind kind : kOopKinds) {
      SCOPED_TRACE(std::string(target.name) + ", backend " +
                   std::string(fuzz::to_string(kind)));
      Reference reference(target);
      ScopedEnv knob("ICSFUZZ_SHIM_KILL_CHILD_AT", "3");
      const std::unique_ptr<ProtocolTarget> placeholder =
          proto::target_factory("libmodbus")();

      fuzz::Executor executor(oop_config(target, kind));

      for (int i = 1; i <= 5; ++i) {
        const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
        if (i == 3) {
          // The SIGKILLed child is a crash, attributed to the synthetic
          // child-terminated site, with whatever partial trace it left.
          EXPECT_TRUE(result.crashed()) << "execution " << i;
          EXPECT_TRUE(
              has_fault_site(result, san::site_id("oop-child-terminated")))
              << "execution " << i;
        } else {
          // Every surrounding execution matches the reference: the fork
          // server survives its children.
          reference.expect_match(result, kPacket, i);
        }
      }
      ASSERT_NE(executor.oop_backend(), nullptr);
      EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u)
          << "a child death must not force a server respawn";
      if (kind == fuzz::BackendKind::kPersistent) {
        // The crashed persistent child was recycled; a fresh one served the
        // following executions.
        EXPECT_GE(executor.oop_backend()->child_recycles(), 1u);
      }
    }
  }
}

TEST(ForkServerFaults, ExecutionKilledBeforeItStartsCarriesNoStaleResult) {
  // Execution 5 runs in the slot execution 1 used (four slots, rotated in
  // order) and dies before its child touches the slot. Nothing of
  // execution 1's result may surface as execution 5's: the client
  // invalidates a slot's result when it posts into it.
  for (const FaultTarget& target : fault_targets()) {
    for (const fuzz::BackendKind kind : kOopKinds) {
      SCOPED_TRACE(std::string(target.name) + ", backend " +
                   std::string(fuzz::to_string(kind)));
      ScopedEnv knob("ICSFUZZ_SHIM_KILL_CHILD_AT", "5");
      const std::unique_ptr<ProtocolTarget> placeholder =
          proto::target_factory("libmodbus")();
      fuzz::Executor executor(oop_config(target, kind));

      for (int i = 1; i <= 4; ++i) {
        const fuzz::ExecResult& result = executor.run(*placeholder, kPacket);
        ASSERT_FALSE(result.crashed()) << "execution " << i;
        ASSERT_GT(result.events, 0u) << "execution " << i;
        ASSERT_FALSE(result.response.empty()) << "execution " << i;
      }
      const fuzz::ExecResult& killed = executor.run(*placeholder, kPacket);
      EXPECT_TRUE(killed.crashed());
      EXPECT_EQ(killed.events, 0u);
      ASSERT_FALSE(killed.faults.empty());
      for (const san::FaultReport& fault : killed.faults) {
        EXPECT_EQ(fault.site, san::site_id("oop-child-terminated"))
            << fault.detail;
      }
      EXPECT_TRUE(killed.response.empty());
      EXPECT_EQ(killed.trace_edges, 0u);
    }
  }
}

TEST(ForkServerFaults, TargetThatNeverHandshakesReportsServerLost) {
  for (const FaultTarget& target : fault_targets()) {
    SCOPED_TRACE(target.name);
    ScopedEnv knob("ICSFUZZ_SHIM_NO_HANDSHAKE", "1");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();

    fuzz::Executor executor(oop_config(target));

    // Every run fails fast (the server exits instead of handshaking — no
    // timeout wait), reports the server-lost site, and leaves the executor
    // usable for the next attempt.
    for (int i = 0; i < 3; ++i) {
      const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
      EXPECT_TRUE(result.crashed()) << "execution " << i;
      EXPECT_TRUE(has_fault_site(result, san::site_id("oop-server-lost")))
          << "execution " << i;
      EXPECT_EQ(result.trace_edges, 0u) << "execution " << i;
      EXPECT_EQ(result.events, 0u) << "execution " << i;
    }
    ASSERT_NE(executor.oop_backend(), nullptr);
    EXPECT_FALSE(executor.oop_backend()->last_error().empty());
    EXPECT_FALSE(executor.oop_backend()->server_running());
  }
}

TEST(ForkServerFaults, MissingBinaryReportsServerLost) {
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  fuzz::ExecutorConfig config;
  config.backend.kind = fuzz::BackendKind::kForkPerExec;
  config.backend.target_cmd = {"/nonexistent/icsfuzz-shim-target"};
  fuzz::Executor executor(config);

  const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
  EXPECT_TRUE(result.crashed());
  EXPECT_TRUE(has_fault_site(result, san::site_id("oop-server-lost")));
  // A server that never came up is not a "restart": the counter separates
  // "server keeps dying" from "server never started".
  ASSERT_NE(executor.oop_backend(), nullptr);
  EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u);
}

TEST(ForkServerFaults, HangHitsTheDeadlineAndTheServerSurvives) {
  for (const FaultTarget& target : fault_targets()) {
    for (const fuzz::BackendKind kind : kOopKinds) {
      SCOPED_TRACE(std::string(target.name) + ", backend " +
                   std::string(fuzz::to_string(kind)));
      Reference reference(target);
      ScopedEnv knob("ICSFUZZ_SHIM_HANG_AT", "2");
      const std::unique_ptr<ProtocolTarget> placeholder =
          proto::target_factory("libmodbus")();

      fuzz::ExecutorConfig config = oop_config(target, kind);
      config.backend.exec_timeout_ms = 200;
      fuzz::Executor executor(config);

      const auto start = std::chrono::steady_clock::now();
      for (int i = 1; i <= 4; ++i) {
        const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
        if (i == 2) {
          ASSERT_TRUE(result.crashed()) << "execution " << i;
          EXPECT_EQ(result.faults[0].kind, san::FaultKind::Hang)
              << "execution " << i;
          EXPECT_TRUE(
              has_fault_site(result, san::site_id("oop-exec-deadline")))
              << "execution " << i;
        } else {
          // The hung child was SIGKILLed at the deadline; the server keeps
          // serving executions that match the reference.
          reference.expect_match(result, kPacket, i);
        }
      }
      const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start);
      EXPECT_LT(elapsed.count(), 30) << "the deadline must reap hangs promptly";
      ASSERT_NE(executor.oop_backend(), nullptr);
      EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u);
    }
  }
}

TEST(ForkServerFaults, HangInsidePipelinedBatchCostsOnlyItsOwnExecution) {
  // Persistent executions time their deadline on the client. A hang in
  // the middle of a pipelined window must kill exactly the hung execution:
  // the requests already queued behind it run on a fresh child and match
  // in-process execution bit for bit.
  ScopedEnv knob("ICSFUZZ_SHIM_HANG_AT", "3");
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  const std::unique_ptr<ProtocolTarget> reference_target =
      proto::target_factory("libmodbus")();

  std::vector<Bytes> packets;
  for (std::uint8_t quantity = 1; quantity <= 8; ++quantity) {
    // The register count differs, so distinct responses pin the mapping.
    Bytes packet(kPacket.begin(), kPacket.end() - 1);
    packet.push_back(quantity);
    packets.push_back(std::move(packet));
  }
  fuzz::ExecutorConfig config = oop_config(fuzz::BackendKind::kPersistent);
  config.backend.exec_timeout_ms = 200;
  fuzz::Executor executor(config);
  fuzz::Executor reference;

  std::size_t delivered = 0;
  executor.run_batch(
      *placeholder, packets,
      [&](std::size_t index, const fuzz::ExecResult& result) {
        ASSERT_EQ(index, delivered++);
        if (index == 2) {
          ASSERT_TRUE(result.crashed());
          EXPECT_EQ(result.faults[0].kind, san::FaultKind::Hang);
          EXPECT_TRUE(
              has_fault_site(result, san::site_id("oop-exec-deadline")));
          return;
        }
        const fuzz::ExecResult expected =
            reference.run(*reference_target, packets[index]);
        EXPECT_FALSE(result.crashed()) << "execution " << index;
        EXPECT_EQ(result.trace_hash, expected.trace_hash)
            << "execution " << index;
        EXPECT_FALSE(expected.response.empty()) << "execution " << index;
        EXPECT_EQ(result.response, expected.response) << "execution " << index;
      });
  EXPECT_EQ(delivered, packets.size());
  ASSERT_NE(executor.oop_backend(), nullptr);
  EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u);
  EXPECT_EQ(executor.oop_backend()->child_recycles(), 1u);
}

TEST(ForkServerFaults, DisabledDeadlineStillExecutesNormally) {
  // backend.exec_timeout_ms <= 0 disables the wall-clock deadline end to
  // end (the client never sends a kill and waits indefinitely); healthy
  // executions must flow exactly as with a deadline.
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();
    const std::unique_ptr<ProtocolTarget> reference_target =
        proto::target_factory("libmodbus")();

    fuzz::ExecutorConfig config = oop_config(kind);
    config.backend.exec_timeout_ms = 0;
    fuzz::Executor executor(config);
    fuzz::Executor reference;

    for (int i = 0; i < 3; ++i) {
      const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
      const fuzz::ExecResult expected =
          reference.run(*reference_target, kPacket);
      EXPECT_FALSE(result.crashed()) << "execution " << i;
      EXPECT_EQ(result.trace_hash, expected.trace_hash) << "execution " << i;
      EXPECT_EQ(result.response, expected.response) << "execution " << i;
    }
  }
}

TEST(ForkServerFaults, ShmUnlinkRaceDoesNotDisturbALiveServer) {
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  const std::unique_ptr<ProtocolTarget> reference_target =
      proto::target_factory("libmodbus")();

  fuzz::Executor executor(oop_config());
  fuzz::Executor reference;

  const fuzz::ExecResult first = executor.run(*placeholder, kPacket);
  const fuzz::ExecResult expected_first =
      reference.run(*reference_target, kPacket);
  EXPECT_EQ(first.trace_hash, expected_first.trace_hash);

  // Rip the name out from under the running server (a hostile peer, an
  // overzealous cleaner). Both sides hold live mappings, so execution
  // continues bit-identically.
  ASSERT_NE(executor.oop_backend(), nullptr);
  const std::string name = executor.oop_backend()->segment().name();
  ASSERT_FALSE(name.empty());
  ASSERT_EQ(::shm_unlink(name.c_str()), 0);

  for (int i = 0; i < 3; ++i) {
    const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
    const fuzz::ExecResult expected =
        reference.run(*reference_target, kPacket);
    EXPECT_FALSE(result.crashed()) << "execution " << i;
    EXPECT_EQ(result.trace_hash, expected.trace_hash) << "execution " << i;
    EXPECT_EQ(result.response, expected.response) << "execution " << i;
  }
  EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u);
}

TEST(ForkServerFaults, ServerCrashTriggersRespawnAndTheRunRetries) {
  // The server dies right before serving its 3rd execution. The executor
  // respawns it (fresh segment, fresh handshake) and retries the packet,
  // so the caller sees an unbroken stream of clean results. The respawned
  // server re-reads the knob, so it dies again at ITS 3rd execution: 5
  // packets = 2 respawns, every result clean.
  for (const FaultTarget& target : fault_targets()) {
    for (const fuzz::BackendKind kind : kOopKinds) {
      SCOPED_TRACE(std::string(target.name) + ", backend " +
                   std::string(fuzz::to_string(kind)));
      Reference reference(target);
      ScopedEnv knob("ICSFUZZ_SHIM_SERVER_EXIT_AT", "3");
      const std::unique_ptr<ProtocolTarget> placeholder =
          proto::target_factory("libmodbus")();

      fuzz::Executor executor(oop_config(target, kind));

      for (int i = 1; i <= 5; ++i) {
        reference.expect_match(executor.run(*placeholder, kPacket), kPacket,
                               i);
      }
      ASSERT_NE(executor.oop_backend(), nullptr);
      EXPECT_EQ(executor.oop_backend()->server_restarts(), 2u);
      // A nonzero-exit server is a LOST server, never an orderly one.
      EXPECT_EQ(executor.oop_backend()->orderly_server_exits(), 0u);
    }
  }
}

TEST(ForkServerFaults, OrderlyServerRetirementIsNotALostServer) {
  // The server retires (exit 0) after every 3 served executions. The client
  // must classify the EOF + clean exit as kServerExited: respawn and retry
  // exactly as for a crash, but book it under oop_server_exits — the
  // oop_server_lost counter stays at zero (it used to overcount this).
  for (const FaultTarget& target : fault_targets()) {
    for (const fuzz::BackendKind kind : kOopKinds) {
      SCOPED_TRACE(std::string(target.name) + ", backend " +
                   std::string(fuzz::to_string(kind)));
      Reference reference(target);
      ScopedEnv knob("ICSFUZZ_SHIM_SERVER_RETIRE_AFTER", "3");
      const std::unique_ptr<ProtocolTarget> placeholder =
          proto::target_factory("libmodbus")();

      telem::Telemetry hub;
      fuzz::ExecutorConfig config = oop_config(target, kind);
      config.telemetry = telem::Sink(&hub, 0);
      fuzz::Executor executor(config);

      // 8 packets across servers that retire every 3: two retirements hit
      // mid-stream, every result still clean and matching the reference.
      for (int i = 1; i <= 8; ++i) {
        reference.expect_match(executor.run(*placeholder, kPacket), kPacket,
                               i);
      }
      ASSERT_NE(executor.oop_backend(), nullptr);
      EXPECT_EQ(executor.oop_backend()->orderly_server_exits(), 2u);
      EXPECT_EQ(executor.oop_backend()->server_restarts(), 2u);

      const telem::Snapshot snap = hub.snapshot();
      EXPECT_EQ(snap.counter(telem::Counter::kOopServerLost), 0u)
          << "orderly retirement must not count as a lost server";
      EXPECT_EQ(snap.counter(telem::Counter::kOopServerExits), 2u);
      EXPECT_EQ(snap.counter(telem::Counter::kOopRestarts), 2u);
    }
  }
}

TEST(ForkServerFaults, ServerLossMidWindowResubmitsEveryQueuedPacket) {
  // A server that dies or retires with a full window in flight takes every
  // posted request with it. The executor must resubmit the whole window to
  // the respawned server, oldest first and numbered afresh, including a
  // packet too large for a slot that waits in the middle of the queue. The
  // knobs key on the server's execution index, so the counts are exact:
  // with 12 packets (the piped one 7th), a server that dies at its 3rd
  // execution serves two each (6 servers, the piped packet the one that
  // kills the 3rd), and one that retires after its 3rd serves three each
  // (4 servers; the last retirement comes after the final result). The
  // piped packet's kFork can reach a retiring server after its child
  // published the 3rd result and before that child exited: the server must
  // still retire, not serve the piped packet as its 4th.
  struct Fault {
    const char* knob;
    std::uint64_t restarts;
    std::uint64_t orderly_exits;
    std::size_t served_per_server;
  };
  const Fault faults[] = {{"ICSFUZZ_SHIM_SERVER_EXIT_AT", 5, 0, 2},
                          {"ICSFUZZ_SHIM_SERVER_RETIRE_AFTER", 3, 3, 3}};
  std::vector<Bytes> packets;
  for (std::uint8_t quantity = 1; quantity <= 3 * oop::kNumSlots;
       ++quantity) {
    // Addressed to the server's unit, with a register count of its own, so
    // distinct responses pin the mapping.
    packets.push_back({0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                       proto::ModbusServer::kUnitId, 0x03, 0x00, 0x00, 0x00,
                       quantity});
  }
  // Too large for a slot, so it rides its kFork: one zero-filled frame whose
  // MBAP length covers it, then a read.
  Bytes& piped = packets[6];
  Bytes frame(oop::kSlotPacketBytes + 1 - piped.size(), 0x00);
  const std::size_t declared = frame.size() - 6;
  frame[4] = static_cast<std::uint8_t>(declared >> 8);
  frame[5] = static_cast<std::uint8_t>(declared & 0xFF);
  piped.insert(piped.begin(), frame.begin(), frame.end());

  const FaultTarget shim = fault_targets().front();
  for (const Fault& fault : faults) {
    for (const fuzz::BackendKind kind : kOopKinds) {
      SCOPED_TRACE(std::string(fault.knob) + ", backend " +
                   std::string(fuzz::to_string(kind)));
      Reference reference(shim);
      ScopedEnv knob(fault.knob, "3");
      const std::unique_ptr<ProtocolTarget> placeholder =
          proto::target_factory("libmodbus")();
      fuzz::Executor executor(oop_config(shim, kind));
      ASSERT_EQ(executor.window_depth(), oop::kNumSlots);

      ASSERT_NE(executor.oop_backend(), nullptr);
      const oop::TargetProcess& process = executor.oop_backend()->process();

      // A result is delivered before anything later is awaited, so the
      // server that served it is still the current spawn.
      std::vector<std::size_t> served;  // per spawn, 1-based
      std::size_t delivered = 0;
      executor.run_batch(
          *placeholder, packets,
          [&](std::size_t index, const fuzz::ExecResult& result) {
            ASSERT_EQ(index, delivered++);
            reference.expect_match(result, packets[index],
                                   static_cast<int>(index));
            served.resize(process.spawns());
            ++served.back();
          });
      EXPECT_EQ(delivered, packets.size());
      EXPECT_EQ(served, std::vector<std::size_t>(
                            packets.size() / fault.served_per_server,
                            fault.served_per_server));
      EXPECT_EQ(executor.oop_backend()->server_restarts(), fault.restarts);
      EXPECT_EQ(executor.oop_backend()->orderly_server_exits(),
                fault.orderly_exits);
    }
  }
}

/// Spawns the fork-server shim with the given shm env pair and no protocol
/// descriptors; returns its exit code (-1 on abnormal termination).
int spawn_shim_with_shm_env(const std::string& name, const std::string& size) {
  const pid_t child = ::fork();
  if (child == 0) {
    ::setenv(oop::kShmNameEnv, name.c_str(), 1);
    ::setenv(oop::kShmSizeEnv, size.c_str(), 1);
    ::execl(ICSFUZZ_SHIM_PATH, ICSFUZZ_SHIM_PATH, "--project", "libmodbus",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int wstatus = 0;
  while (::waitpid(child, &wstatus, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

TEST(ForkServerFaults, ShimRejectsMalformedShmSizeEnv) {
  // A real, attachable segment: the only thing wrong is the announced size.
  oop::ShmSegment segment = oop::ShmSegment::create(oop::kSegmentBytesV2);
  if (!segment.named()) GTEST_SKIP() << "POSIX shm namespace unavailable";
  const std::string exact = std::to_string(oop::kSegmentBytesV2);
  // The exact size attaches and gets as far as the hello, which fails
  // (exit 4) because this spawn installed no status descriptor.
  EXPECT_EQ(spawn_shim_with_shm_env(segment.name(), exact), 4);
  // strtoull used to read "<size>stray" as <size> and attach anyway, turn
  // garbage into 0 and map any size it was told. Each of these must now
  // exit through the no-usable-segment code (3) before the mmap.
  const std::string bad_sizes[] = {
      exact + "stray",
      "banana",
      "",
      "-" + exact,
      "0",
      std::to_string(oop::kSegmentBytesV2 - 1),
      std::to_string(oop::kHandoffOffset),
      "999999999999",
      "18446744073709551615",
  };
  for (const std::string& size : bad_sizes) {
    EXPECT_EQ(spawn_shim_with_shm_env(segment.name(), size), 3)
        << "size '" << size << "'";
  }
}

TEST(ForkServerFaults, CampaignKeepsRunningThroughChildDeaths) {
  // A whole fuzzing campaign over a target whose children die
  // periodically: the fork server absorbs every death, the crash db
  // records the synthetic site, and coverage still accumulates. The knob
  // counts the server's executions, speculative ones included; Peach uses
  // no feedback, so its window never discards and server execution 7 is
  // campaign execution 7.
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    ScopedEnv knob("ICSFUZZ_SHIM_KILL_CHILD_AT", "7");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();
    const model::DataModelSet models = pits::pit_for_project("libmodbus");

    fuzz::FuzzerConfig config;
    config.strategy = fuzz::Strategy::Peach;
    config.rng_seed = 7;
    config.executor = oop_config(kind);
    fuzz::Fuzzer fuzzer(*placeholder, models, config);
    fuzzer.run(60);

    EXPECT_EQ(fuzzer.executor().executions(), 60u);
    EXPECT_GT(fuzzer.path_count(), 1u);
    EXPECT_GT(fuzzer.executor().edge_count(), 0u);
    // The killed child surfaced in the crash accounting.
    bool saw_child_death = false;
    for (const fuzz::CrashRecord* record : fuzzer.crashes().records()) {
      saw_child_death |= record->site == san::site_id("oop-child-terminated");
    }
    EXPECT_TRUE(saw_child_death);
  }
}

TEST(ForkServerFaults, DeathOfADiscardedExecutionIsNoVerdict) {
  // A window drained after feedback moved: the second of four in-flight
  // executions kills its child. The discard waits every execution out,
  // books the death's recycle and four speculative discards, and nothing
  // of it reaches the campaign — no execution, crash, hang or lost server
  // — while the next child serves the rest and the next run.
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    ScopedEnv knob("ICSFUZZ_SHIM_KILL_CHILD_AT", "2");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();
    telem::Telemetry hub;
    fuzz::ExecutorConfig config = oop_config(kind);
    config.telemetry = telem::Sink(&hub, 0);
    fuzz::Executor executor(config);
    ASSERT_EQ(executor.window_depth(), oop::kNumSlots);

    for (std::uint32_t i = 0; i < oop::kNumSlots; ++i) {
      executor.submit(*placeholder, kPacket);
    }
    for (std::uint32_t i = 0; i < oop::kNumSlots; ++i) executor.discard();
    EXPECT_EQ(executor.executions(), 0u);
    EXPECT_EQ(executor.path_count(), 0u);
    EXPECT_EQ(executor.edge_count(), 0u);

    const telem::Snapshot snap = hub.snapshot();
    EXPECT_EQ(snap.counter(telem::Counter::kOopSpeculativeDiscards),
              oop::kNumSlots);
    EXPECT_GE(snap.counter(telem::Counter::kOopChildRecycles), 1u);
    EXPECT_EQ(snap.counter(telem::Counter::kOopHangs), 0u);
    EXPECT_EQ(snap.counter(telem::Counter::kOopServerLost), 0u);
    EXPECT_EQ(snap.counter(telem::Counter::kOopOomKills), 0u);
    EXPECT_EQ(snap.counter(telem::Counter::kOopRestarts), 0u);

    const fuzz::ExecResult& result = executor.run(*placeholder, kPacket);
    EXPECT_FALSE(result.crashed());
    EXPECT_EQ(executor.executions(), 1u);
    EXPECT_EQ(hub.snapshot().counter(telem::Counter::kOopSpeculativeDiscards),
              oop::kNumSlots);
  }
}

}  // namespace
}  // namespace icsfuzz
