// CampaignSupervisor + resilience-layer coverage (src/supervise/): the
// worker watchdog unwedging a hung fork server or TCP session server,
// graceful stop/resume through the checkpoint, the resource jail's kOom
// classification, the retry policy's crash-loop breaker, and shm hygiene
// after a SIGKILLed campaign (sweep_orphans / unlink_all_registered). The
// kTcp cases hold the session transport to the same supervision contract
// as the fork-server backends, telemetry included.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec_oop/oop_executor.hpp"
#include "exec_oop/shm_segment.hpp"
#include "fuzzer/fuzzer.hpp"
#include "parallel/parallel_campaign.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "protocols/target_registry.hpp"
#include "sanitizer/fault.hpp"
#include "session/framing.hpp"
#include "supervise/supervisor.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/test_support.hpp"

namespace icsfuzz {
namespace {

namespace fs = std::filesystem;

using test::ScopedEnv;
using test::shim_cmd;
using test::shim_tcp_cmd;

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

bool has_fault_site(const fuzz::ExecResult& result, std::uint32_t site) {
  for (const san::FaultReport& fault : result.faults) {
    if (fault.site == site) return true;
  }
  return false;
}

const Bytes kPacket = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                       0x01, 0x03, 0x00, 0x00, 0x00, 0x0A};

const fuzz::BackendKind kOopKinds[] = {fuzz::BackendKind::kForkPerExec,
                                       fuzz::BackendKind::kPersistent};

fuzz::FuzzerConfig small_config(std::uint64_t seed) {
  fuzz::FuzzerConfig config;
  config.rng_seed = seed;
  config.stats_interval = 200;
  return config;
}

fuzz::TargetFactory modbus_factory() {
  return [] { return std::make_unique<proto::ModbusServer>(); };
}

/// A one-message IEC 104 session (STARTDT act) for the kTcp cases.
const Bytes kStartDtAct = {0x68, 0x04, 0x07, 0x00, 0x00, 0x00};

/// ExecutorConfig for the IEC 104 session server under kTcp.
fuzz::ExecutorConfig tcp_config() {
  fuzz::ExecutorConfig config;
  config.backend.kind = fuzz::BackendKind::kTcp;
  config.backend.target_cmd = shim_tcp_cmd("IEC104");
  config.backend.session.framing = session::framing_for_project("IEC104");
  return config;
}

const fuzz::ExecResult& run_session(fuzz::Executor& executor) {
  static const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("IEC104")();
  return executor.run(*placeholder, kStartDtAct);
}

/// Blocks until `pid` is a zombie (dead, not yet reaped) — the state a
/// killed server is in when its owner next looks.
void wait_until_dead(pid_t pid) {
  const std::string stat = "/proc/" + std::to_string(pid) + "/stat";
  for (int i = 0; i < 5000; ++i) {
    std::ifstream in(stat);
    std::string pid_field;
    std::string comm;
    char state = 0;
    if (!(in >> pid_field >> comm >> state) || state == 'Z') return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --------------------------------------------------------- crash-loop breaker

TEST(RetryPolicy, CrashLoopBudgetFailsFastInsteadOfRespawningForever) {
  // The server handshakes, then dies before serving its first execution —
  // every respawn is doomed. With a finite budget the executor must stop
  // forking it and fail fast.
  ScopedEnv knob("ICSFUZZ_SHIM_SERVER_EXIT_AT", "1");
  oop::TargetConfig config;
  config.target_cmd = shim_cmd();
  config.retry.max_respawns = 2;
  oop::OutOfProcessExecutor executor(config);

  for (int i = 0; i < 4; ++i) {
    const oop::OutOfProcessExecutor::Outcome& outcome = executor.run(kPacket);
    EXPECT_EQ(outcome.status, oop::ExecStatus::kServerLost) << "run " << i;
  }
  EXPECT_EQ(executor.server_restarts(), 2u)
      << "respawns must stop at the configured budget";
  EXPECT_NE(executor.last_error().find("crash-loop"), std::string::npos)
      << "last_error: " << executor.last_error();
  EXPECT_FALSE(executor.server_running());
}

TEST(RetryPolicy, TcpCrashLoopBudgetFailsFast) {
  // Every TCP session server dies on its first session: each death is the
  // target's (classified, not retried), and the next session has to
  // respawn. With a budget of 2 the third respawn never happens.
  ScopedEnv knob("ICSFUZZ_SHIM_SERVER_EXIT_AT", "1");
  fuzz::ExecutorConfig config = tcp_config();
  config.backend.retry.max_respawns = 2;
  fuzz::Executor executor(config);

  for (int i = 1; i <= 5; ++i) {
    const fuzz::ExecResult& result = run_session(executor);
    ASSERT_TRUE(result.crashed()) << "session " << i;
    if (i <= 3) {
      EXPECT_TRUE(has_fault_site(result, san::site_id("oop-child-terminated")))
          << "session " << i;
      EXPECT_NE(result.faults[0].detail.find("code 9"), std::string::npos)
          << result.faults[0].detail;
    } else {
      EXPECT_TRUE(has_fault_site(result, san::site_id("tcp-server-lost")))
          << "session " << i;
      EXPECT_NE(result.faults[0].detail.find("crash-loop"), std::string::npos)
          << result.faults[0].detail;
    }
  }
  const oop::TargetProcess* process = executor.backend().target_process();
  ASSERT_NE(process, nullptr);
  EXPECT_EQ(process->tallies().restarts, 2u)
      << "respawns must stop at the configured budget";
  EXPECT_FALSE(process->running());
}

TEST(RetryPolicy, DefaultsKeepUnlimitedRespawns) {
  const oop::RetryPolicy defaults;
  EXPECT_EQ(oop::kMaxRetries, 1);
  EXPECT_LT(defaults.max_respawns, 0);  // negative = unlimited (historical)
}

// ------------------------------------------------------------- resource jail

TEST(ResourceJail, AllocationFailureClassifiedAsOomNotCrash) {
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    ScopedEnv knob("ICSFUZZ_SHIM_OOM_AT", "2");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();

    telem::Telemetry hub;
    fuzz::ExecutorConfig config;
    config.backend.kind = kind;
    config.backend.target_cmd = shim_cmd();
    config.backend.jail.address_space_mb = 512;
    config.telemetry = telem::Sink(&hub, 0);
    fuzz::Executor executor(config);

    for (int i = 1; i <= 3; ++i) {
      const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
      if (i == 2) {
        // The jailed child exhausted RLIMIT_AS: a distinct OOM bucket, not
        // a memory-safety crash site.
        EXPECT_TRUE(result.crashed()) << "execution " << i;
        EXPECT_TRUE(has_fault_site(result, san::site_id("oop-child-oom")))
            << "execution " << i;
      } else {
        EXPECT_FALSE(result.crashed()) << "execution " << i;
      }
    }
    ASSERT_NE(executor.oop_backend(), nullptr);
    EXPECT_EQ(executor.oop_backend()->oom_kills(), 1u);
    EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u)
        << "an OOM'd child must not cost a server respawn";
    EXPECT_EQ(hub.snapshot().counter(telem::Counter::kOopOomKills), 1u);
  }
}

TEST(ResourceJail, TcpServerOomClassifiedAsOomNotCrash) {
  // The session server runs sessions in its own process, so the jail caps
  // that process: the OOM session ends it with the jail's exit code.
#if defined(__SANITIZE_ADDRESS__)
  // AddressSanitizer has already reserved terabytes of shadow address
  // space, so an RLIMIT_AS cap on a whole long-lived server makes the
  // sanitizer runtime's own later mappings fail while serving session 1.
  GTEST_SKIP() << "RLIMIT_AS on a whole AddressSanitizer process";
#endif
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer maps its shadow memory the same way, and those
  // mappings hit the same whole-process cap.
  GTEST_SKIP() << "RLIMIT_AS on a whole ThreadSanitizer process";
#endif
  ScopedEnv knob("ICSFUZZ_SHIM_OOM_AT", "2");
  telem::Telemetry hub;
  fuzz::ExecutorConfig config = tcp_config();
  config.backend.jail.address_space_mb = 512;
  config.telemetry = telem::Sink(&hub, 0);
  fuzz::Executor executor(config);

  for (int i = 1; i <= 3; ++i) {
    const fuzz::ExecResult& result = run_session(executor);
    if (i == 2) {
      EXPECT_TRUE(result.crashed()) << "session " << i;
      EXPECT_TRUE(has_fault_site(result, san::site_id("oop-child-oom")))
          << "session " << i;
    } else {
      EXPECT_FALSE(result.crashed()) << "session " << i;
    }
  }
  const oop::TargetProcess* process = executor.backend().target_process();
  ASSERT_NE(process, nullptr);
  // Session 3 needs the one respawn the dead server forces, and no more:
  // the OOM session itself is classified, never retried.
  EXPECT_EQ(process->tallies().restarts, 1u);
  EXPECT_EQ(process->tallies().retries, 0u);
  const telem::Snapshot snap = hub.snapshot();
  EXPECT_EQ(snap.counter(telem::Counter::kOopOomKills), 1u);
  EXPECT_EQ(snap.counter(telem::Counter::kOopServerLost), 0u);
}

// ------------------------------------------------- kTcp failure classification

TEST(TcpSupervision, MidSessionCrashIsClassifiedWellInsideTheDeadline) {
  // The server segfaults while serving session 2. The client must notice
  // the death and classify it by the wait status — not sit out the 30 s
  // deadline and book a hang.
  ScopedEnv knob("ICSFUZZ_SHIM_SEGV_AT", "2");
  telem::Telemetry hub;
  fuzz::ExecutorConfig config = tcp_config();
  config.backend.exec_timeout_ms = 30000;
  config.telemetry = telem::Sink(&hub, 0);
  fuzz::Executor executor(config);

  for (int i = 1; i <= 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const fuzz::ExecResult& result = run_session(executor);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    if (i == 2) {
      ASSERT_TRUE(result.crashed());
      EXPECT_EQ(result.faults[0].kind, san::FaultKind::Segv);
      EXPECT_TRUE(has_fault_site(result, san::site_id("oop-child-terminated")));
      // "signal 11" — or "code 1" under AddressSanitizer, whose SEGV
      // handler reports and exits instead of dying on the signal.
      const std::string& detail = result.faults[0].detail;
      EXPECT_TRUE(detail.find("signal 11") != std::string::npos ||
                  detail.find("code 1)") != std::string::npos)
          << detail;
      EXPECT_LT(elapsed.count(), 5000) << "classified only at the deadline";
    } else {
      EXPECT_FALSE(result.crashed()) << "session " << i;
    }
  }
  const telem::Snapshot snap = hub.snapshot();
  EXPECT_EQ(snap.counter(telem::Counter::kOopHangs), 0u);
  EXPECT_EQ(snap.counter(telem::Counter::kOopServerLost), 0u);
}

TEST(TcpSupervision, ForcedRespawnBooksForkServerTelemetry) {
  // A server killed between sessions is down before the next session
  // starts: the backend respawns it and retries the session, and books
  // exactly what a fork-server backend books for the same event.
  telem::Telemetry hub;
  fuzz::ExecutorConfig config = tcp_config();
  config.telemetry = telem::Sink(&hub, 0);
  fuzz::Executor executor(config);

  EXPECT_FALSE(run_session(executor).crashed());
  const oop::TargetProcess* process = executor.backend().target_process();
  ASSERT_NE(process, nullptr);
  const pid_t first = process->pid();
  ASSERT_GT(first, 0);
  process->kill();
  wait_until_dead(first);
  EXPECT_FALSE(run_session(executor).crashed()) << "the retry must succeed";
  EXPECT_FALSE(run_session(executor).crashed());
  EXPECT_NE(process->pid(), first);

  EXPECT_EQ(process->tallies().restarts, 1u);
  EXPECT_EQ(process->tallies().retries, 1u);
  const telem::Snapshot snap = hub.snapshot();
  EXPECT_EQ(snap.counter(telem::Counter::kOopRestarts), 1u);
  EXPECT_EQ(snap.counter(telem::Counter::kOopRetries), 1u);
  EXPECT_EQ(snap.counter(telem::Counter::kOopServerExits), 0u);
  EXPECT_EQ(snap.counter(telem::Counter::kOopServerLost), 0u);
  std::size_t respawn_events = 0;
  for (const telem::Event& event : hub.journal().events()) {
    if (event.type != telem::EventType::kForkServerRespawn) continue;
    ++respawn_events;
    EXPECT_EQ(event.detail_view(), "reason=server-lost");
  }
  EXPECT_EQ(respawn_events, 1u);
}

// ----------------------------------------------------------------- watchdog

TEST(Supervisor, WatchdogUnwedgesHungForkServer) {
  // The shim's 5th execution hangs forever and the wall-clock deadline is
  // disabled — exactly the wedge only the supervisor's out-of-band
  // watchdog can break. Killing the server unblocks the worker through
  // the server-lost respawn path and the campaign still completes.
  ScopedEnv knob("ICSFUZZ_SHIM_HANG_AT", "5");
  const model::DataModelSet models = pits::modbus_pit();
  telem::Telemetry hub;

  supervise::SupervisorConfig config;
  config.campaign.workers = 1;
  config.campaign.iterations_per_worker = 12;
  config.campaign.base_seed = 5;
  config.campaign.sync_interval = 0;
  config.campaign.fuzzer = small_config(0);
  config.campaign.fuzzer.telemetry = telem::Sink(&hub, 0);
  config.campaign.fuzzer.executor.backend.kind =
      fuzz::BackendKind::kForkPerExec;
  config.campaign.fuzzer.executor.backend.target_cmd = shim_cmd();
  config.campaign.fuzzer.executor.backend.exec_timeout_ms = 0;  // no deadline
  config.checkpoint_interval = 0;  // single chunk
  config.wedge_timeout_ms = 250;
  config.watchdog_poll_ms = 50;
  config.max_watchdog_kicks = 8;

  supervise::CampaignSupervisor supervisor(modbus_factory(), models, config);
  const supervise::SupervisorResult result = supervisor.run();

  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.completed_iterations, 12u);
  EXPECT_GE(result.watchdog_kicks, 1u);
  ASSERT_EQ(result.campaign.workers.size(), 1u);
  EXPECT_EQ(result.campaign.workers[0].executions, 12u);
  EXPECT_GE(hub.snapshot().counter(telem::Counter::kWatchdogKicks), 1u);
}

TEST(Supervisor, WatchdogUnwedgesHungTcpSessionServer) {
  // The same wedge over the session transport: the server hangs on its 5th
  // session with no deadline, so only the watchdog's group kill frees the
  // worker, which sees the server die and carries on.
  ScopedEnv knob("ICSFUZZ_SHIM_HANG_AT", "5");
  const std::string project = "IEC104";
  const model::DataModelSet models = pits::pit_for_project(project);
  telem::Telemetry hub;

  supervise::SupervisorConfig config;
  config.campaign.workers = 1;
  config.campaign.iterations_per_worker = 12;
  config.campaign.base_seed = 5;
  config.campaign.sync_interval = 0;
  config.campaign.fuzzer = small_config(0);
  config.campaign.fuzzer.telemetry = telem::Sink(&hub, 0);
  config.campaign.fuzzer.session.enabled = true;
  config.campaign.fuzzer.session.framing =
      session::framing_for_project(project);
  config.campaign.fuzzer.session.project = project;
  config.campaign.fuzzer.executor = tcp_config();
  config.campaign.fuzzer.executor.backend.exec_timeout_ms = 0;  // no deadline
  config.checkpoint_interval = 0;  // single chunk
  config.wedge_timeout_ms = 250;
  config.watchdog_poll_ms = 50;
  config.max_watchdog_kicks = 8;

  supervise::CampaignSupervisor supervisor(proto::target_factory(project),
                                           models, config);
  const supervise::SupervisorResult result = supervisor.run();

  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.completed_iterations, 12u);
  EXPECT_GE(result.watchdog_kicks, 1u);
  ASSERT_EQ(result.campaign.workers.size(), 1u);
  EXPECT_EQ(result.campaign.workers[0].executions, 12u);
  EXPECT_GE(hub.snapshot().counter(telem::Counter::kWatchdogKicks), 1u);
}

TEST(Supervisor, ChunkEndsWhenItsWorkDoesNotAtTheNextPoll) {
  // Six short chunks under the default 200 ms watchdog poll. The last
  // worker to finish wakes the watchdog, so the campaign takes its work's
  // time, not a poll interval per chunk — and an early wake must never
  // read as a stall.
  const model::DataModelSet models = pits::modbus_pit();
  constexpr int kPollMs = 200;
  constexpr std::uint64_t kChunks = 6;

  supervise::SupervisorConfig config;
  config.campaign.workers = 2;
  config.campaign.iterations_per_worker = 100 * kChunks;
  config.campaign.base_seed = 17;
  config.campaign.sync_interval = 0;
  config.campaign.fuzzer = small_config(0);
  config.checkpoint_interval = 100;
  config.watchdog_poll_ms = kPollMs;

  supervise::CampaignSupervisor supervisor(modbus_factory(), models, config);
  const auto start = std::chrono::steady_clock::now();
  const supervise::SupervisorResult result = supervisor.run();
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.completed_iterations, 100 * kChunks);
  EXPECT_EQ(result.watchdog_kicks, 0u);
  EXPECT_LT(wall_ms, static_cast<std::int64_t>(kChunks * kPollMs / 2))
      << "chunks still wait out the watchdog poll";
}

/// Modbus target that stalls at its `block_at`-th execution until
/// `dir`/metrics.json exists (5 s cap) and records whether it appeared.
class WaitForExportTarget final : public ProtocolTarget {
 public:
  WaitForExportTarget(fs::path metrics, std::uint64_t block_at,
                      std::atomic<int>* appeared)
      : metrics_(std::move(metrics)), block_at_(block_at),
        appeared_(appeared) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void reset() override { inner_.reset(); }
  Bytes process(ByteSpan packet) override {
    Bytes response;
    process_into(packet, response);
    return response;
  }
  void process_into(ByteSpan packet, Bytes& response) override {
    if (++executions_ == block_at_) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!fs::exists(metrics_) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      appeared_->store(fs::exists(metrics_) ? 1 : 0);
    }
    inner_.process_into(packet, response);
  }

 private:
  proto::ModbusServer inner_;
  fs::path metrics_;
  std::uint64_t block_at_;
  std::atomic<int>* appeared_;
  std::uint64_t executions_ = 0;
};

TEST(Supervisor, LiveExportWhileWorkersRun) {
  // The watchdog's wait exports telemetry_dir every telemetry_export_ms
  // while the workers run, not only once they have joined: a worker
  // blocked mid-campaign sees metrics.json appear.
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-supervisor-live");
  const fs::path telemetry_dir = dir.path() / "live";
  telem::Telemetry hub;
  std::atomic<int> appeared{-1};

  supervise::SupervisorConfig config;
  config.campaign.workers = 1;
  config.campaign.iterations_per_worker = 400;
  config.campaign.base_seed = 3;
  config.campaign.sync_interval = 0;
  config.campaign.fuzzer = small_config(0);
  config.campaign.fuzzer.telemetry = telem::Sink(&hub, 0);
  config.campaign.telemetry_dir = telemetry_dir.string();
  config.campaign.telemetry_export_ms = 50;
  config.checkpoint_interval = 0;

  supervise::CampaignSupervisor supervisor(
      [&] {
        return std::make_unique<WaitForExportTarget>(
            telemetry_dir / "metrics.json", 200, &appeared);
      },
      models, config);
  const supervise::SupervisorResult result = supervisor.run();

  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.completed_iterations, 400u);
  EXPECT_EQ(appeared.load(), 1) << "no live export while the worker ran";
  EXPECT_TRUE(fs::exists(telemetry_dir / "metrics.json"));
}

// ------------------------------------------------------- supervised campaigns

TEST(Supervisor, MultiWorkerCampaignCompletesWithPeriodicCheckpoints) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-supervisor-w2");

  supervise::SupervisorConfig config;
  config.campaign.workers = 2;
  config.campaign.iterations_per_worker = 600;
  config.campaign.base_seed = 11;
  config.campaign.sync_interval = 200;
  config.campaign.fuzzer = small_config(0);
  config.checkpoint_path = (dir.path() / "campaign.ckpt").string();
  config.checkpoint_interval = 250;  // chunks of 250/250/100

  supervise::CampaignSupervisor supervisor(modbus_factory(), models, config);
  const supervise::SupervisorResult result = supervisor.run();

  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.completed_iterations, 600u);
  EXPECT_EQ(result.checkpoints_saved, 3u);
  EXPECT_EQ(result.watchdog_kicks, 0u);
  ASSERT_EQ(result.campaign.workers.size(), 2u);
  EXPECT_EQ(result.campaign.total_executions, 1200u);
  for (const par::WorkerReport& report : result.campaign.workers) {
    EXPECT_EQ(report.executions, 600u);
    EXPECT_GT(report.paths, 0u);
  }
  // Deduplicated global coverage bounded by the per-worker tallies.
  std::size_t max_paths = 0;
  std::size_t sum_paths = 0;
  for (const par::WorkerReport& report : result.campaign.workers) {
    max_paths = std::max(max_paths, report.paths);
    sum_paths += report.paths;
  }
  EXPECT_GE(result.campaign.global_paths, max_paths);
  EXPECT_LE(result.campaign.global_paths, sum_paths);
  EXPECT_TRUE(fs::exists(config.checkpoint_path));
}

TEST(Supervisor, GracefulStopCheckpointsAndResumeFinishesBitForBit) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-supervisor-stop");
  const std::string checkpoint_path = (dir.path() / "campaign.ckpt").string();
  supervise::CampaignSupervisor::clear_stop();

  supervise::SupervisorConfig config;
  config.campaign.workers = 1;
  config.campaign.iterations_per_worker = 20000;
  config.campaign.base_seed = 321;
  config.campaign.sync_interval = 512;
  config.campaign.fuzzer = small_config(0);
  config.checkpoint_path = checkpoint_path;
  config.checkpoint_interval = 128;

  // The stand-in for Ctrl-C: request the stop (from another thread, as a
  // signal handler effectively does) once the first checkpoint landed.
  std::thread interrupter([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!fs::exists(checkpoint_path) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    supervise::CampaignSupervisor::request_stop();
  });
  supervise::CampaignSupervisor supervisor(modbus_factory(), models, config);
  const supervise::SupervisorResult stopped = supervisor.run();
  interrupter.join();

  ASSERT_TRUE(stopped.interrupted);
  EXPECT_GT(stopped.completed_iterations, 0u);
  EXPECT_LT(stopped.completed_iterations, 20000u);
  EXPECT_EQ(stopped.completed_iterations % 128, 0u)
      << "stop lands on a chunk boundary";
  EXPECT_GE(stopped.checkpoints_saved, 1u);
  // Partial tallies reflect the work actually done.
  ASSERT_EQ(stopped.campaign.workers.size(), 1u);
  EXPECT_EQ(stopped.campaign.workers[0].executions,
            stopped.completed_iterations);

  // Resume to completion and demand equality with a never-stopped run.
  supervise::CampaignSupervisor::clear_stop();
  supervise::CampaignSupervisor resumer(modbus_factory(), models, config);
  const supervise::SupervisorResult resumed = resumer.run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed_iterations, 20000u);

  const par::ParallelCampaignResult reference =
      test::run_parallel_campaign(modbus_factory(), models, config.campaign);
  const par::WorkerReport& actual = resumed.campaign.workers[0];
  const par::WorkerReport& expected = reference.workers[0];
  EXPECT_EQ(actual.executions, expected.executions);
  EXPECT_EQ(actual.paths, expected.paths);
  EXPECT_EQ(actual.edges, expected.edges);
  EXPECT_EQ(actual.unique_crashes, expected.unique_crashes);
  EXPECT_EQ(actual.corpus_size, expected.corpus_size);
  EXPECT_EQ(actual.retained_seeds, expected.retained_seeds);
  EXPECT_EQ(resumed.campaign.pooled_crashes.unique_count(),
            reference.pooled_crashes.unique_count());
}

// -------------------------------------------------------------- shm hygiene

TEST(ShmHygiene, SweepOrphansReclaimsSegmentsOfKilledProcess) {
  // Probe: the named shm namespace may be unavailable (sandboxed CI).
  {
    oop::ShmSegment probe = oop::ShmSegment::create(4096);
    if (!probe.named()) GTEST_SKIP() << "POSIX shm namespace unavailable";
  }

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(fds[0]);
    // Leak two live segments on purpose, then wait to be SIGKILLed — the
    // destructor-based unlink never runs, exactly like a killed campaign.
    std::vector<oop::ShmSegment> leaked;
    leaked.push_back(oop::ShmSegment::create(1 << 16));
    leaked.push_back(oop::ShmSegment::create(1 << 16));
    const char ready = leaked[0].named() && leaked[1].named() ? 'R' : 'F';
    (void)!::write(fds[1], &ready, 1);
    for (;;) ::pause();
  }
  ::close(fds[1]);
  char ready = 0;
  ASSERT_EQ(::read(fds[0], &ready, 1), 1);
  ::close(fds[0]);
  ASSERT_EQ(ready, 'R');

  const std::string prefix = "icsfuzz-" + std::to_string(child) + "-";
  std::size_t before = 0;
  for (const auto& entry : fs::directory_iterator("/dev/shm")) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++before;
  }
  ASSERT_EQ(before, 2u) << "child segments must be visible pre-kill";

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);

  EXPECT_GE(oop::sweep_orphans(), 2u);
  std::size_t after = 0;
  for (const auto& entry : fs::directory_iterator("/dev/shm")) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++after;
  }
  EXPECT_EQ(after, 0u) << "no residue of the killed process may remain";
}

TEST(ShmHygiene, UnlinkAllRegisteredKeepsLiveMappingsUsable) {
  oop::ShmSegment segment = oop::ShmSegment::create(4096);
  if (!segment.named()) GTEST_SKIP() << "POSIX shm namespace unavailable";
  const std::string entry_name = segment.name().substr(1);  // drop '/'
  ASSERT_TRUE(fs::exists(fs::path("/dev/shm") / entry_name));

  EXPECT_GE(oop::unlink_all_registered(), 1u);
  EXPECT_FALSE(fs::exists(fs::path("/dev/shm") / entry_name));
  EXPECT_EQ(oop::unlink_all_registered(), 0u);  // registry drained

  // POSIX unlink-vs-mapping semantics: the pages stay fully usable.
  segment.data()[0] = 0x42;
  segment.data()[4095] = 0x24;
  EXPECT_EQ(segment.data()[0], 0x42);
  EXPECT_EQ(segment.data()[4095], 0x24);
}

}  // namespace
}  // namespace icsfuzz
