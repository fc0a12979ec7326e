// Differential suite for out-of-process (shm + fork-server) execution.
//
// The shim binary links the SAME instrumented protocol stacks the
// in-process executor drives, so every observable the feedback loop
// consumes must be bit-identical across the two execution modes — the
// built-in differential oracle this suite enforces, mirroring the
// three-way matrix style of test_coverage_sparse.cpp:
//
//   * ShmSegment unit behaviour (named create and target-side attach
//     round trip, early unlink keeping mappings valid, the anonymous
//     fallback),
//   * CoverageMap::adopt_external vs in-process tracing of identical
//     patterns (trace bytes, dirty list, fused summary, accumulation),
//   * single executions of every project's server: trace hash, edge
//     count, events, faults, response bytes, accumulated map, path set —
//     for BOTH out-of-process backends (fork-per-exec and persistent),
//   * persistent-mode hygiene: no state bleed between iterations of one
//     child (same packet at iteration 1 vs K-1 of the budget), recycle
//     accounting, a shim that stays asleep between recycles, pipelined
//     batch == sequential execution,
//   * fixed-seed campaign trajectories (Fuzzer with and without
//     auto-distill, a W=2 parallel campaign) bit-identical across all
//     three ExecBackend kinds,
//   * the Fuzzer's speculative in-flight window: a kPersistent campaign
//     (four generations in flight, discarded whenever feedback moves)
//     ends in exactly the state of its in-process twin — per strategy,
//     with cracks on every seed, auto-distill, imports between steps,
//     dedup rotations inside windows, a checkpoint taken mid-window and
//     crash sites hit while later requests are in flight.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "coverage/dense_ref.hpp"
#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/oop_executor.hpp"
#include "exec_oop/shm_segment.hpp"
#include "exec_oop/target_runtime.hpp"
#include "fuzzer/fuzzer.hpp"
#include "model/instantiation.hpp"
#include "mutation/mutator.hpp"
#include "parallel/parallel_campaign.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "protocols/target_registry.hpp"
#include "supervise/checkpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/test_support.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

using test::CellPattern;
using test::dirty_list_defect;
using test::emit_pattern;
using test::runnable_kernels;

using test::shim_cmd;

/// Generous per-exec deadline for the differential/trajectory configs: a
/// scheduler stall on a loaded CI runner must not inject a spurious Hang
/// fault into a bit-identity comparison (the fault-injection suite covers
/// the deadline machinery explicitly).
constexpr int kGenerousTimeoutMs = 30000;

/// ExecutorConfig for `project` under the given out-of-process backend
/// kind. `budget` == 0 keeps the config default (persistent only).
fuzz::ExecutorConfig oop_executor_config(const std::string& project,
                                         fuzz::BackendKind kind,
                                         std::uint32_t budget = 0) {
  fuzz::ExecutorConfig config;
  config.backend.kind = kind;
  config.backend.target_cmd = shim_cmd(project);
  config.backend.exec_timeout_ms = kGenerousTimeoutMs;
  if (budget != 0) config.backend.persistent_budget = budget;
  return config;
}

/// The two out-of-process backend kinds every differential test covers.
const fuzz::BackendKind kOopKinds[] = {fuzz::BackendKind::kForkPerExec,
                                       fuzz::BackendKind::kPersistent};

// -- ShmSegment. ----------------------------------------------------------

/// The target-side attach of a segment, announced the way a spawning
/// client announces it (the ICSFUZZ_OOP_SHM pair); empty when refused.
std::span<std::uint8_t> attach_as_target(const std::string& name,
                                         std::size_t size) {
  ::setenv(oop::kShmNameEnv, name.c_str(), 1);
  ::setenv(oop::kShmSizeEnv, std::to_string(size).c_str(), 1);
  const std::span<std::uint8_t> mapped = oop::attach_announced_segment(size);
  ::unsetenv(oop::kShmNameEnv);
  ::unsetenv(oop::kShmSizeEnv);
  return mapped;
}

/// Unmaps a target-side attach when the test ends.
struct TargetMapping {
  std::span<std::uint8_t> bytes;
  ~TargetMapping() {
    if (!bytes.empty()) ::munmap(bytes.data(), bytes.size());
  }
};

TEST(ShmSegment, NamedCreateAttachRoundTrip) {
  oop::ShmSegment created = oop::ShmSegment::create(1 << 16);
  ASSERT_TRUE(created.valid()) << created.error();
  ASSERT_TRUE(created.named()) << "expected the shm_open backing";
  created.data()[0] = 0xAB;
  created.data()[65535] = 0xCD;

  const TargetMapping attached{attach_as_target(created.name(), 1 << 16)};
  ASSERT_EQ(attached.bytes.size(), std::size_t{1} << 16);
  EXPECT_EQ(attached.bytes[0], 0xAB);
  EXPECT_EQ(attached.bytes[65535], 0xCD);

  // Writes propagate both ways through the shared pages.
  attached.bytes[100] = 0x55;
  EXPECT_EQ(created.data()[100], 0x55);
}

TEST(ShmSegment, EarlyUnlinkKeepsMappingsValid) {
  oop::ShmSegment created = oop::ShmSegment::create(4096);
  ASSERT_TRUE(created.valid()) << created.error();
  ASSERT_TRUE(created.named());
  const TargetMapping attached{attach_as_target(created.name(), 4096)};
  ASSERT_FALSE(attached.bytes.empty());

  const std::string name = created.name();
  created.unlink_name();
  // The name is gone from the namespace...
  EXPECT_TRUE(attach_as_target(name, 4096).empty());
  // ...but both existing mappings still share pages.
  created.data()[7] = 0x77;
  EXPECT_EQ(attached.bytes[7], 0x77);
}

TEST(ShmSegment, TargetRefusesASizePastTheSegment) {
  // The announced size must fit the shm object: a larger one would turn
  // the first touch past the object's end into a SIGBUS.
  oop::ShmSegment created = oop::ShmSegment::create(4096);
  ASSERT_TRUE(created.valid()) << created.error();
  ASSERT_TRUE(created.named());
  EXPECT_TRUE(attach_as_target(created.name(), 8192).empty());
}

TEST(ShmSegment, AnonymousFallback) {
  oop::ShmSegment segment =
      oop::ShmSegment::create(4096, /*force_anonymous=*/true);
  ASSERT_TRUE(segment.valid()) << segment.error();
  EXPECT_FALSE(segment.named());
  segment.data()[0] = 1;
  EXPECT_EQ(segment.data()[0], 1);
}

TEST(ShmSegment, DistinctNamesAcrossSegments) {
  oop::ShmSegment a = oop::ShmSegment::create(4096);
  oop::ShmSegment b = oop::ShmSegment::create(4096);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_NE(a.name(), b.name());
}

// -- adopt_external vs in-process tracing. --------------------------------

using Pattern = CellPattern;

/// Produces `pattern`'s raw map in an "external" buffer, the way a
/// fork-server child would have: traced into plain shared bytes whose
/// dirty list never crosses the process boundary.
void write_external(std::uint8_t* external, const Pattern& pattern) {
  std::memset(external, 0, cov::kMapSize);
  cov::begin_trace(external);
  emit_pattern(pattern);
  cov::end_trace();
}

void expect_adopt_equivalent(const std::vector<Pattern>& executions) {
  auto external = std::make_unique<std::uint64_t[]>(cov::kMapWords);
  for (const cov::simd::Kernel kind : runnable_kernels()) {
    SCOPED_TRACE(std::string("kernel ") +
                 std::string(cov::simd::kernel_name(kind)));
    cov::CoverageMap adopted;
    adopted.use_kernel(kind);
    cov::CoverageMap inproc;
    inproc.use_kernel(kind);
    for (std::size_t i = 0; i < executions.size(); ++i) {
      write_external(reinterpret_cast<std::uint8_t*>(external.get()),
                     executions[i]);
      adopted.adopt_external(external.get());
      const cov::TraceSummary a = adopted.finalize_execution();

      inproc.begin_execution();
      emit_pattern(executions[i]);
      const cov::TraceSummary b = inproc.finalize_execution();

      ASSERT_EQ(a.trace_hash, b.trace_hash) << "execution " << i;
      ASSERT_EQ(a.trace_edges, b.trace_edges) << "execution " << i;
      ASSERT_EQ(a.new_coverage, b.new_coverage) << "execution " << i;
      ASSERT_EQ(adopted.edges_covered(), inproc.edges_covered())
          << "execution " << i;
      ASSERT_EQ(0,
                std::memcmp(adopted.trace(), inproc.trace(), cov::kMapSize))
          << "execution " << i;
      ASSERT_EQ(adopted.snapshot_accumulated(), inproc.snapshot_accumulated())
          << "execution " << i;

      // The rebuilt dirty list is complete and duplicate-free.
      ASSERT_EQ(dirty_list_defect(adopted), "") << "execution " << i;
    }
  }
}

TEST(AdoptExternal, BoundaryWordsAndEmptyTraces) {
  Pattern boundary;
  for (const std::uint32_t cell : {0u, 7u, 65528u, 65535u}) {
    boundary.push_back({cell, 1});
  }
  Pattern revisit = {{0u, 3}, {65535u, 3}, {1u, 1}, {65529u, 1}};
  expect_adopt_equivalent({Pattern{}, boundary, revisit, Pattern{}, boundary});
}

TEST(AdoptExternal, RandomizedPatterns) {
  Rng rng(0x00BEEF);
  std::vector<Pattern> executions;
  for (int exec = 0; exec < 30; ++exec) {
    Pattern pattern;
    const std::size_t edges = rng.chance(1, 5) ? 2000 + rng.index(2000)
                                               : 1 + rng.index(300);
    for (std::size_t i = 0; i < edges; ++i) {
      pattern.push_back({static_cast<std::uint32_t>(rng.below(cov::kMapSize)),
                         static_cast<std::uint32_t>(1 + rng.below(40))});
    }
    executions.push_back(std::move(pattern));
  }
  expect_adopt_equivalent(executions);
}

TEST(AdoptExternal, InterleavesWithInProcessExecutions) {
  // A map can alternate between adopting external traces and tracing
  // in-process ones; the dirty bookkeeping must survive the mix.
  auto external = std::make_unique<std::uint64_t[]>(cov::kMapWords);
  cov::CoverageMap mixed;
  cov::CoverageMap reference;
  Rng rng(99);
  for (int exec = 0; exec < 20; ++exec) {
    Pattern pattern;
    const std::size_t edges = 1 + rng.index(200);
    for (std::size_t i = 0; i < edges; ++i) {
      pattern.push_back({static_cast<std::uint32_t>(rng.below(cov::kMapSize)),
                         static_cast<std::uint32_t>(1 + rng.below(4))});
    }
    if (exec % 2 == 0) {
      write_external(reinterpret_cast<std::uint8_t*>(external.get()),
                     pattern);
      mixed.adopt_external(external.get());
    } else {
      mixed.begin_execution();
      emit_pattern(pattern);
    }
    const cov::TraceSummary a = mixed.finalize_execution();

    reference.begin_execution();
    emit_pattern(pattern);
    const cov::TraceSummary b = reference.finalize_execution();
    ASSERT_EQ(a.trace_hash, b.trace_hash) << "execution " << exec;
    ASSERT_EQ(a.trace_edges, b.trace_edges) << "execution " << exec;
    ASSERT_EQ(mixed.snapshot_accumulated(), reference.snapshot_accumulated())
        << "execution " << exec;
  }
}

// -- Differential execution: in-process vs fork server. -------------------

/// A deterministic packet batch for `project`: every model's default
/// instance plus fixed-seed byte mutations of each, an empty packet, junk,
/// and the two packets either side of a slot's capacity (the larger rides
/// its fork request on the control pipe). Those two are an MBAP frame the
/// Modbus stack skips followed by the first model's default instance, so
/// on libmodbus the response depends on the final bytes arriving intact.
std::vector<Bytes> packet_batch(const std::string& project) {
  const model::DataModelSet models = pits::pit_for_project(project);
  const mutation::MutatorSuite mutators;
  Rng rng(0x5EED + project.size());
  std::vector<Bytes> packets;
  for (const model::DataModel& model : models.models()) {
    Bytes base = model::default_instance(model).serialize();
    for (int m = 0; m < 3; ++m) {
      packets.push_back(mutators.mutate_bytes(base, rng));
    }
    packets.push_back(std::move(base));
  }
  packets.push_back({});                          // empty packet
  packets.push_back(rng.bytes(512));              // oversized junk
  const Bytes tail = packets[3];
  for (const std::size_t size :
       {oop::kSlotTestCaseBytes - 4, oop::kSlotTestCaseBytes - 3}) {
    Bytes big(size - tail.size(), 0);
    const std::size_t declared = big.size() - 6;
    big[4] = static_cast<std::uint8_t>(declared >> 8);
    big[5] = static_cast<std::uint8_t>(declared & 0xFF);
    big.insert(big.end(), tail.begin(), tail.end());
    packets.push_back(std::move(big));
  }
  return packets;
}

void expect_fault_lists_equal(const std::vector<san::FaultReport>& a,
                              const std::vector<san::FaultReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "fault " << i;
    EXPECT_EQ(a[i].site, b[i].site) << "fault " << i;
    EXPECT_EQ(a[i].detail, b[i].detail) << "fault " << i;
  }
}

TEST(OopDifferential, EveryProjectMatchesInProcessExecution) {
  for (const fuzz::BackendKind kind : kOopKinds) {
    for (const std::string& project : pits::all_project_names()) {
      SCOPED_TRACE("project " + project + " backend " +
                   std::string(fuzz::to_string(kind)));
      const auto factory = proto::target_factory(project);
      ASSERT_TRUE(factory);
      const std::unique_ptr<ProtocolTarget> inproc_target = factory();
      const std::unique_ptr<ProtocolTarget> placeholder = factory();

      fuzz::Executor inproc;
      fuzz::Executor oop(oop_executor_config(project, kind));

      std::size_t crashes = 0;
      for (const Bytes& packet : packet_batch(project)) {
        const fuzz::ExecResult a = inproc.run(*inproc_target, packet);
        const fuzz::ExecResult b = oop.run(*placeholder, packet);
        ASSERT_EQ(a.trace_hash, b.trace_hash);
        ASSERT_EQ(a.trace_edges, b.trace_edges);
        ASSERT_EQ(a.new_coverage, b.new_coverage);
        ASSERT_EQ(a.new_path, b.new_path);
        ASSERT_EQ(a.events, b.events);
        ASSERT_EQ(a.response, b.response);
        ASSERT_FALSE(b.response_truncated)
            << "protocol responses must fit the aux block";
        expect_fault_lists_equal(a.faults, b.faults);
        crashes += a.crashed();
      }
      ASSERT_NE(oop.oop_backend(), nullptr);
      EXPECT_EQ(oop.oop_backend()->server_restarts(), 0u);
      if (kind == fuzz::BackendKind::kPersistent) {
        // The shim in the build advertises the capability; the config
        // requested it — persistent execution must actually be in effect,
        // not a silent degrade.
        EXPECT_TRUE(oop.oop_backend()->persistent_active());
      }

      // Campaign-lifetime aggregates: identical accumulated map + path set.
      EXPECT_EQ(inproc.edge_count(), oop.edge_count());
      EXPECT_EQ(inproc.path_count(), oop.path_count());
      EXPECT_EQ(inproc.coverage().snapshot_accumulated(),
                oop.coverage().snapshot_accumulated());
      std::vector<std::uint64_t> inproc_paths = inproc.paths().snapshot();
      std::vector<std::uint64_t> oop_paths = oop.paths().snapshot();
      std::sort(inproc_paths.begin(), inproc_paths.end());
      std::sort(oop_paths.begin(), oop_paths.end());
      EXPECT_EQ(inproc_paths, oop_paths);
    }
  }
}

TEST(OopDifferential, DenseReferenceModeAlsoMatches) {
  // The dense full-map reference analysis applies unchanged to adopted
  // traces — the sparse/dense x in-process/OOP square commutes on both
  // out-of-process kinds.
  const std::string project = "libmodbus";
  const auto factory = proto::target_factory(project);
  for (const fuzz::BackendKind kind :
       {fuzz::BackendKind::kForkPerExec, fuzz::BackendKind::kPersistent}) {
    SCOPED_TRACE(std::string(fuzz::to_string(kind)));
    const std::unique_ptr<ProtocolTarget> inproc_target = factory();
    const std::unique_ptr<ProtocolTarget> placeholder = factory();

    fuzz::ExecutorConfig dense_config;
    dense_config.coverage_kernel = cov::simd::Kernel::kDense;
    fuzz::Executor inproc(dense_config);
    fuzz::ExecutorConfig oop_config = oop_executor_config(project, kind);
    oop_config.coverage_kernel = cov::simd::Kernel::kDense;
    fuzz::Executor oop(oop_config);

    for (const Bytes& packet : packet_batch(project)) {
      const fuzz::ExecResult a = inproc.run(*inproc_target, packet);
      const fuzz::ExecResult b = oop.run(*placeholder, packet);
      ASSERT_EQ(a.trace_hash, b.trace_hash);
      ASSERT_EQ(a.trace_edges, b.trace_edges);
      ASSERT_EQ(a.new_coverage, b.new_coverage);
    }
    EXPECT_EQ(inproc.coverage().snapshot_accumulated(),
              oop.coverage().snapshot_accumulated());
  }
}

TEST(OopDifferential, CompletedExecutionsAdoptFromThePublishedDirtyList) {
  // The shim publishes each execution's dirty-word list, so no completed
  // execution needs the full-map scan; the kDense oracle takes it every
  // time. Both arms match in-process execution.
  const std::string project = "libmodbus";
  const auto factory = proto::target_factory(project);
  for (const fuzz::BackendKind kind : kOopKinds) {
    for (const cov::simd::Kernel kernel :
         {cov::simd::Kernel::kAuto, cov::simd::Kernel::kDense}) {
      SCOPED_TRACE(std::string(fuzz::to_string(kind)) + " kernel " +
                   std::string(cov::simd::kernel_name(kernel)));
      const std::unique_ptr<ProtocolTarget> inproc_target = factory();
      const std::unique_ptr<ProtocolTarget> placeholder = factory();
      fuzz::Executor inproc;
      telem::Telemetry hub;
      fuzz::ExecutorConfig config = oop_executor_config(project, kind);
      config.coverage_kernel = kernel;
      config.telemetry = telem::Sink(&hub, 0);
      fuzz::Executor oop(config);

      std::uint64_t runs = 0;
      for (const Bytes& packet : packet_batch(project)) {
        const fuzz::ExecResult a = inproc.run(*inproc_target, packet);
        const fuzz::ExecResult& b = oop.run(*placeholder, packet);
        ASSERT_EQ(a.trace_hash, b.trace_hash);
        ASSERT_EQ(a.trace_edges, b.trace_edges);
        ASSERT_EQ(a.new_coverage, b.new_coverage);
        ++runs;
      }
      EXPECT_EQ(hub.snapshot().counter(telem::Counter::kOopAdoptFullScans),
                kernel == cov::simd::Kernel::kDense ? runs : 0u);
    }
  }
}

// -- Persistent-mode hygiene. ---------------------------------------------

/// Raw backend config for `project` with a persistent budget.
oop::TargetConfig raw_oop_config(const std::string& project,
                                 std::uint32_t budget) {
  oop::TargetConfig config;
  config.target_cmd = shim_cmd(project);
  config.exec_timeout_ms = kGenerousTimeoutMs;
  config.persistent_budget = budget;
  return config;
}

void expect_outcomes_identical(const oop::OutOfProcessExecutor::Outcome& a,
                               const oop::OutOfProcessExecutor::Outcome& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.aux.events, b.aux.events);
  EXPECT_EQ(a.aux.response, b.aux.response);
  EXPECT_EQ(a.aux.response_truncated, b.aux.response_truncated);
  EXPECT_EQ(a.aux.faults_truncated, b.aux.faults_truncated);
  expect_fault_lists_equal(a.aux.faults, b.aux.faults);
}

TEST(OopPersistent, NoStateBleedAcrossChildIterations) {
  // The state-bleed gate of the persistent redesign: the same input at
  // iteration 1 and at iteration K-1 of one child's budget must produce
  // identical coverage and observables — anything a previous iteration
  // leaked (dirty map words, stale aux bytes, mutated target state) would
  // break the equality.
  constexpr std::uint32_t kBudget = 6;
  const std::string project = "libmodbus";
  oop::OutOfProcessExecutor exec(raw_oop_config(project, kBudget));
  const std::vector<Bytes> packets = packet_batch(project);
  const Bytes probe = packets.front();

  // Iteration 1 of a fresh child.
  const oop::OutOfProcessExecutor::Outcome first = exec.run(probe);
  ASSERT_EQ(first.status, oop::ExecStatus::kOk);
  ASSERT_TRUE(first.persistent);
  ASSERT_EQ(first.iteration, 1u);
  ASSERT_NE(exec.map_words(), nullptr);
  std::vector<std::uint64_t> first_map(exec.map_words(),
                                       exec.map_words() + cov::kMapWords);

  // Dirty the child through iterations 2..K-2 with differing packets.
  for (std::uint32_t i = 2; i <= kBudget - 2; ++i) {
    const auto& filler = exec.run(packets[i % packets.size()]);
    ASSERT_EQ(filler.status, oop::ExecStatus::kOk);
    ASSERT_EQ(filler.iteration, i);
    ASSERT_FALSE(filler.child_recycled);
  }

  // The probe again at iteration K-1 of the SAME child.
  const oop::OutOfProcessExecutor::Outcome again = exec.run(probe);
  ASSERT_EQ(again.iteration, kBudget - 1);
  ASSERT_FALSE(again.child_recycled);
  expect_outcomes_identical(first, again);
  EXPECT_EQ(0, std::memcmp(first_map.data(), exec.map_words(), cov::kMapSize));

  // Iteration K exhausts the budget and recycles the child.
  const auto& last = exec.run(probe);
  EXPECT_EQ(last.iteration, kBudget);
  EXPECT_TRUE(last.child_recycled);
  EXPECT_EQ(exec.child_recycles(), 1u);
  EXPECT_EQ(exec.server_restarts(), 0u);
}

TEST(OopPersistent, RecycleAccountingAndIterationCycling) {
  constexpr std::uint32_t kBudget = 4;
  oop::OutOfProcessExecutor exec(raw_oop_config("libmodbus", kBudget));
  const std::vector<Bytes> packets = packet_batch("libmodbus");
  for (int i = 0; i < 10; ++i) {
    const auto& outcome = exec.run(packets[i % packets.size()]);
    ASSERT_EQ(outcome.status, oop::ExecStatus::kOk) << "exec " << i;
    ASSERT_TRUE(outcome.persistent) << "exec " << i;
    EXPECT_EQ(outcome.iteration, static_cast<std::uint32_t>(i % kBudget) + 1)
        << "exec " << i;
    EXPECT_EQ(outcome.child_recycled, (i + 1) % kBudget == 0) << "exec " << i;
  }
  EXPECT_EQ(exec.child_recycles(), 2u);  // after executions 4 and 8
  EXPECT_EQ(exec.server_restarts(), 0u);
  EXPECT_EQ(exec.orderly_server_exits(), 0u);
}

TEST(OopPersistent, ShimSleepsBetweenRecycles) {
  // Persistent executions pass straight between client and child; the shim
  // wakes only to fork, reap or kill. Its context switches must therefore
  // grow with recycles, not with executions: 4096 executions at budget
  // 1024 are four recycles.
  constexpr std::uint32_t kBudget = 1024;
  constexpr int kExecs = 4096;
  oop::OutOfProcessExecutor exec(raw_oop_config("libmodbus", kBudget));
  // Slot-sized packets only: a larger one runs alone in a budget-1 child,
  // which is a recycle of its own.
  std::vector<Bytes> packets = packet_batch("libmodbus");
  std::erase_if(packets, [](const Bytes& packet) {
    return packet.size() > oop::kSlotPacketBytes;
  });
  ASSERT_EQ(exec.run(packets.front()).status, oop::ExecStatus::kOk);
  ASSERT_TRUE(exec.persistent_active());

  const std::uint64_t before = exec.process().context_switches();
  ASSERT_GT(before, 0u) << "no /proc status for the shim";
  for (int i = 1; i < kExecs; ++i) {
    ASSERT_EQ(exec.run(packets[i % packets.size()]).status,
              oop::ExecStatus::kOk)
        << "exec " << i;
  }
  const std::uint64_t switches = exec.process().context_switches() - before;
  EXPECT_EQ(exec.child_recycles(), 4u);
  EXPECT_EQ(exec.server_restarts(), 0u);
  EXPECT_LE(switches, 8u * (exec.child_recycles() + 1))
      << "the shim woke " << switches << " times for " << kExecs
      << " executions";
}

TEST(OopPersistent, BatchMatchesSequentialExecution) {
  // The pipelined batch path must be an optimization only: same per-packet
  // results, same campaign aggregates as one run() per packet. The small
  // budget forces child recycles mid-batch, and a packet too large for a
  // slot mid-batch has to wait for the window to drain and run alone.
  const std::string project = "libmodbus";
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory(project)();
  std::vector<Bytes> packets = packet_batch(project);
  packets.insert(packets.begin() + static_cast<std::ptrdiff_t>(
                                       packets.size() / 2),
                 packets.back());

  fuzz::Executor seq(
      oop_executor_config(project, fuzz::BackendKind::kPersistent, 5));
  std::vector<fuzz::ExecResult> sequential;
  for (const Bytes& packet : packets) {
    sequential.push_back(seq.run(*placeholder, packet));
  }

  fuzz::Executor batch(
      oop_executor_config(project, fuzz::BackendKind::kPersistent, 5));
  std::size_t delivered = 0;
  batch.run_batch(
      *placeholder, packets,
      [&](std::size_t index, const fuzz::ExecResult& result) {
        ASSERT_EQ(index, delivered);
        const fuzz::ExecResult& expect = sequential[index];
        ASSERT_EQ(result.trace_hash, expect.trace_hash) << "packet " << index;
        ASSERT_EQ(result.trace_edges, expect.trace_edges) << "packet " << index;
        ASSERT_EQ(result.new_coverage, expect.new_coverage)
            << "packet " << index;
        ASSERT_EQ(result.new_path, expect.new_path) << "packet " << index;
        ASSERT_EQ(result.events, expect.events) << "packet " << index;
        ASSERT_EQ(result.response, expect.response) << "packet " << index;
        expect_fault_lists_equal(result.faults, expect.faults);
        ++delivered;
      });
  EXPECT_EQ(delivered, packets.size());
  EXPECT_EQ(batch.executions(), seq.executions());
  EXPECT_EQ(batch.edge_count(), seq.edge_count());
  EXPECT_EQ(batch.path_count(), seq.path_count());
  EXPECT_EQ(batch.coverage().snapshot_accumulated(),
            seq.coverage().snapshot_accumulated());
  ASSERT_NE(batch.oop_backend(), nullptr);
  EXPECT_EQ(batch.oop_backend()->server_restarts(), 0u);
  EXPECT_GT(batch.oop_backend()->child_recycles(), 0u);
}

TEST(OopPersistent, OversizedPacketRunsAloneAndKeepsTheBudget) {
  // A packet too large for a slot rides its fork request and runs alone in
  // a budget-1 child; the children after it go back to the client's K.
  constexpr std::uint32_t kBudget = 4;
  oop::OutOfProcessExecutor exec(raw_oop_config("libmodbus", kBudget));
  std::vector<Bytes> packets = packet_batch("libmodbus");
  const Bytes oversized = packets.back();
  ASSERT_GT(oversized.size(), oop::kSlotPacketBytes);
  packets.resize(8);
  packets.insert(packets.begin() + 2, oversized);

  // The window stays full: the oversized packet is submitted while three
  // packets are in flight ahead of it.
  std::vector<std::uint32_t> iterations;
  std::vector<bool> recycled;
  std::size_t submitted = 0;
  for (std::size_t index = 0; index < packets.size(); ++index) {
    for (; submitted < packets.size() && exec.in_flight() < oop::kNumSlots;
         ++submitted) {
      exec.submit(packets[submitted]);
    }
    const oop::OutOfProcessExecutor::Outcome& out = exec.complete();
    EXPECT_EQ(out.status, oop::ExecStatus::kOk) << "packet " << index;
    EXPECT_EQ(out.packet.size(), packets[index].size()) << "packet " << index;
    iterations.push_back(out.iteration);
    recycled.push_back(out.child_recycled);
  }
  const std::vector<std::uint32_t> expect_iterations = {1, 2, 1, 1, 2,
                                                        3, 4, 1, 2};
  EXPECT_EQ(iterations, expect_iterations);
  EXPECT_TRUE(recycled[2]);
  EXPECT_TRUE(recycled[6]);
  EXPECT_EQ(exec.server_restarts(), 0u);
}

/// Hand-framed Modbus/TCP packet (MBAP header + unit id + PDU) for the
/// slot-mapping tests: crash recipes and reads with distinct lengths.
Bytes mbap_packet(std::initializer_list<std::uint8_t> pdu) {
  Bytes out;
  out.reserve(7 + pdu.size());
  for (const std::uint8_t b : {std::uint8_t{0x00}, std::uint8_t{0x01},
                               std::uint8_t{0x00}, std::uint8_t{0x00},
                               std::uint8_t{0x00},
                               static_cast<std::uint8_t>(pdu.size() + 1),
                               proto::ModbusServer::kUnitId}) {
    out.push_back(b);
  }
  for (const std::uint8_t b : pdu) out.push_back(b);
  return out;
}

TEST(OopPersistent, BatchCrashAndBudgetGapsKeepSlotMappingExact) {
  // The hard pipeline cases in one batch: a crash lands in slot k while
  // slot k+1 is already in flight, and the child budget (2) exhausts
  // repeatedly mid-batch, so results cross crash and recycle boundaries.
  // Every slot's result must still be the one for ITS OWN packet — the
  // reads carry distinct response lengths and the crashes distinct fault
  // kinds, so any off-by-one delivery shows up immediately.
  const std::string project = "libmodbus";
  const auto factory = proto::target_factory(project);
  const std::unique_ptr<ProtocolTarget> inproc_target = factory();
  const std::unique_ptr<ProtocolTarget> placeholder = factory();

  const Bytes uaf = mbap_packet(
      {0x17, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00});
  const Bytes segv = mbap_packet({0x2B, 0x0E, 0x04, 0x09});
  std::vector<Bytes> packets;
  std::vector<san::FaultKind> expected_kind;
  for (std::uint8_t n = 1; n <= 5; ++n) {
    packets.push_back(mbap_packet({0x03, 0x00, 0x00, 0x00, n}));
    expected_kind.push_back(san::FaultKind::Hang);  // placeholder: clean
    packets.push_back((n % 2 != 0) ? uaf : segv);
    expected_kind.push_back((n % 2 != 0) ? san::FaultKind::HeapUseAfterFree
                                         : san::FaultKind::Segv);
  }
  const auto is_crash_slot = [&](std::size_t i) { return i % 2 == 1; };

  // Reference arm: the same packets, one in-process run() each.
  fuzz::Executor inproc;
  std::vector<fuzz::ExecResult> reference;
  for (const Bytes& packet : packets) {
    reference.push_back(inproc.run(*inproc_target, packet));
  }
  // Distinct-length sanity of the workload itself, so "response equality"
  // below really pins the slot mapping.
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (is_crash_slot(i)) {
      ASSERT_EQ(reference[i].faults.size(), 1u) << "slot " << i;
      ASSERT_EQ(reference[i].faults[0].kind, expected_kind[i]) << "slot " << i;
    } else {
      ASSERT_TRUE(reference[i].faults.empty()) << "slot " << i;
      ASSERT_FALSE(reference[i].response.empty()) << "slot " << i;
      if (i >= 2) {
        ASSERT_NE(reference[i].response.size(), reference[i - 2].response.size())
            << "reads must differ in length for the mapping check";
      }
    }
  }

  fuzz::Executor batch(
      oop_executor_config(project, fuzz::BackendKind::kPersistent, 2));
  std::size_t delivered = 0;
  batch.run_batch(*placeholder, packets,
                  [&](std::size_t index, const fuzz::ExecResult& result) {
                    ASSERT_EQ(index, delivered);
                    const fuzz::ExecResult& expect = reference[index];
                    ASSERT_EQ(result.trace_hash, expect.trace_hash)
                        << "slot " << index;
                    ASSERT_EQ(result.events, expect.events) << "slot " << index;
                    ASSERT_EQ(result.response, expect.response)
                        << "slot " << index;
                    expect_fault_lists_equal(result.faults, expect.faults);
                    ++delivered;
                  });
  EXPECT_EQ(delivered, packets.size());
  EXPECT_EQ(batch.executions(), inproc.executions());
  EXPECT_EQ(batch.edge_count(), inproc.edge_count());
  EXPECT_EQ(batch.path_count(), inproc.path_count());
  EXPECT_EQ(batch.coverage().snapshot_accumulated(),
            inproc.coverage().snapshot_accumulated());
  ASSERT_NE(batch.oop_backend(), nullptr);
  EXPECT_EQ(batch.oop_backend()->server_restarts(), 0u);
  // Budget 2 over 10 packets: the batch must have recycled children while
  // requests were in flight.
  EXPECT_GT(batch.oop_backend()->child_recycles(), 2u);
}

TEST(OopPersistent, BatchInvariantAcrossBudgetBoundaries) {
  // The budget is a transport knob, never a semantic one: the same batch
  // through budgets 1 (recycle every exec), 3 (exhausts mid-batch at an
  // uneven boundary) and 64 (never exhausts) must land identical per-slot
  // results and campaign aggregates.
  const std::string project = "libmodbus";
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory(project)();
  const std::vector<Bytes> packets = packet_batch(project);

  struct BatchOutcome {
    std::vector<std::uint64_t> trace_hashes;
    std::vector<Bytes> responses;
    std::vector<std::size_t> fault_counts;
    std::vector<std::uint8_t> accumulated;
    std::size_t paths = 0;
  };
  const auto run_with_budget = [&](std::uint32_t budget) {
    fuzz::Executor executor(
        oop_executor_config(project, fuzz::BackendKind::kPersistent, budget));
    BatchOutcome outcome;
    executor.run_batch(*placeholder, packets,
                       [&](std::size_t index, const fuzz::ExecResult& result) {
                         EXPECT_EQ(index, outcome.trace_hashes.size());
                         outcome.trace_hashes.push_back(result.trace_hash);
                         outcome.responses.push_back(result.response);
                         outcome.fault_counts.push_back(result.faults.size());
                       });
    outcome.accumulated = executor.coverage().snapshot_accumulated();
    outcome.paths = executor.path_count();
    return outcome;
  };

  const BatchOutcome tight = run_with_budget(1);
  const BatchOutcome uneven = run_with_budget(3);
  const BatchOutcome roomy = run_with_budget(64);
  EXPECT_EQ(tight.trace_hashes, uneven.trace_hashes);
  EXPECT_EQ(tight.trace_hashes, roomy.trace_hashes);
  EXPECT_EQ(tight.responses, uneven.responses);
  EXPECT_EQ(tight.responses, roomy.responses);
  EXPECT_EQ(tight.fault_counts, uneven.fault_counts);
  EXPECT_EQ(tight.fault_counts, roomy.fault_counts);
  EXPECT_EQ(tight.accumulated, uneven.accumulated);
  EXPECT_EQ(tight.accumulated, roomy.accumulated);
  EXPECT_EQ(tight.paths, uneven.paths);
  EXPECT_EQ(tight.paths, roomy.paths);
}

// -- Fixed-seed campaign trajectories. ------------------------------------

/// Rolling fingerprint + per-checkpoint series of one campaign (the same
/// shape test_coverage_sparse.cpp uses for its sparse-vs-dense matrix).
struct Trajectory {
  std::vector<std::size_t> path_series;
  std::vector<std::size_t> edge_series;
  std::uint64_t exec_fingerprint = 0;
  std::size_t retained = 0;
  std::size_t corpus = 0;
  std::size_t crashes = 0;

  bool operator==(const Trajectory&) const = default;
};

Trajectory run_fuzzer_campaign(fuzz::BackendKind kind,
                               std::uint64_t iterations,
                               std::uint64_t distill_interval = 0) {
  const std::string project = "libmodbus";
  const std::unique_ptr<ProtocolTarget> target =
      proto::target_factory(project)();
  const model::DataModelSet models = pits::pit_for_project(project);
  fuzz::FuzzerConfig config;
  config.strategy = fuzz::Strategy::PeachStar;
  config.rng_seed = 42;
  config.distill_interval = distill_interval;
  if (kind != fuzz::BackendKind::kInProcess) {
    config.executor = oop_executor_config(project, kind);
  }
  fuzz::Fuzzer fuzzer(*target, models, config);
  Trajectory trajectory;
  fuzzer.run(iterations, [&](const fuzz::ExecResult& result) {
    trajectory.exec_fingerprint =
        trajectory.exec_fingerprint * 0x100000001B3ULL ^
        mix64(result.trace_hash ^ (result.new_coverage ? 1 : 0) ^
              (result.new_path ? 2 : 0) ^ result.trace_edges);
    if (fuzzer.executor().executions() % 250 == 0) {
      trajectory.path_series.push_back(fuzzer.path_count());
      trajectory.edge_series.push_back(fuzzer.executor().edge_count());
    }
  });
  trajectory.retained = fuzzer.retained_seeds().size();
  trajectory.corpus = fuzzer.corpus().size();
  trajectory.crashes = fuzzer.crashes().unique_count();
  return trajectory;
}

TEST(OopTrajectory, FuzzerCampaignIdenticalAcrossAllBackends) {
  // The fixed-seed trajectory matrix of the ExecBackend seam: in-process,
  // fork-per-exec and persistent campaigns must be bit-identical — same
  // fingerprint over every execution's observables, same checkpoint
  // series, same terminal corpus/crash tallies.
  const Trajectory inproc =
      run_fuzzer_campaign(fuzz::BackendKind::kInProcess, 1500);
  const Trajectory forked =
      run_fuzzer_campaign(fuzz::BackendKind::kForkPerExec, 1500);
  const Trajectory persistent =
      run_fuzzer_campaign(fuzz::BackendKind::kPersistent, 1500);
  EXPECT_EQ(forked, inproc);
  EXPECT_EQ(persistent, inproc);
  EXPECT_FALSE(inproc.path_series.empty());
  EXPECT_GT(inproc.path_series.back(), 0u);
}

TEST(OopTrajectory, AutoDistillCampaignIdenticalToInProcess) {
  // distill replays route through private executors with the same
  // ExecutorConfig, so an OOP campaign distills over the fork server too —
  // in persistent mode over persistent children.
  const Trajectory inproc =
      run_fuzzer_campaign(fuzz::BackendKind::kInProcess, 900,
                          /*distill_interval=*/300);
  const Trajectory forked =
      run_fuzzer_campaign(fuzz::BackendKind::kForkPerExec, 900,
                          /*distill_interval=*/300);
  const Trajectory persistent =
      run_fuzzer_campaign(fuzz::BackendKind::kPersistent, 900,
                          /*distill_interval=*/300);
  EXPECT_EQ(forked, inproc);
  EXPECT_EQ(persistent, inproc);
}

TEST(OopTrajectory, ParallelCampaignW2IdenticalAcrossAllBackends) {
  const model::DataModelSet models = pits::pit_for_project("libmodbus");
  auto run_parallel = [&](fuzz::BackendKind kind) {
    par::ParallelCampaignConfig config;
    config.workers = 2;
    config.iterations_per_worker = 400;
    config.base_seed = 99;
    // Syncing off for bit-exact comparison (thread interleaving of sync
    // points is nondeterministic; see test_coverage_sparse.cpp).
    config.sync_interval = 0;
    config.fuzzer.strategy = fuzz::Strategy::PeachStar;
    if (kind != fuzz::BackendKind::kInProcess) {
      // One fork server per worker: each worker's Executor spawns its own
      // backend with a private shm segment.
      config.fuzzer.executor = oop_executor_config("libmodbus", kind);
    }
    return test::run_parallel_campaign(proto::target_factory("libmodbus"),
                                       models, config);
  };
  const par::ParallelCampaignResult inproc =
      run_parallel(fuzz::BackendKind::kInProcess);
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    const par::ParallelCampaignResult oop = run_parallel(kind);
    ASSERT_EQ(oop.workers.size(), inproc.workers.size());
    for (std::size_t w = 0; w < oop.workers.size(); ++w) {
      EXPECT_EQ(oop.workers[w].paths, inproc.workers[w].paths)
          << "worker " << w;
      EXPECT_EQ(oop.workers[w].edges, inproc.workers[w].edges)
          << "worker " << w;
      EXPECT_EQ(oop.workers[w].unique_crashes,
                inproc.workers[w].unique_crashes)
          << "worker " << w;
      EXPECT_EQ(oop.workers[w].retained_seeds,
                inproc.workers[w].retained_seeds)
          << "worker " << w;
      EXPECT_EQ(oop.workers[w].corpus_size, inproc.workers[w].corpus_size)
          << "worker " << w;
    }
    EXPECT_EQ(oop.global_paths, inproc.global_paths);
    EXPECT_EQ(oop.global_edges, inproc.global_edges);
    EXPECT_EQ(oop.total_executions, inproc.total_executions);
  }
}

// -- The speculative in-flight window. ------------------------------------

/// One fixed-seed campaign of the window suite.
struct WindowCampaign {
  std::string project = "libmodbus";
  fuzz::Strategy strategy = fuzz::Strategy::PeachStar;
  std::uint64_t rng_seed = 42;
  bool crack_all_seeds = false;
  std::uint64_t distill_interval = 0;
  std::size_t dedup_capacity = fuzz::FuzzerConfig{}.dedup_capacity;
  /// kPersistent's K (0: the config default).
  std::uint32_t persistent_budget = 0;
  std::uint64_t steps = 2000;
  /// Runs before step `i` (imports between steps).
  std::function<void(fuzz::Fuzzer&, std::uint64_t)> before_step;
};

/// A campaign in progress: the fuzzer plus everything it references.
struct CampaignRun {
  std::unique_ptr<ProtocolTarget> target;
  model::DataModelSet models;
  telem::Telemetry hub;
  std::unique_ptr<fuzz::Fuzzer> fuzzer;

  [[nodiscard]] std::uint64_t discards() const {
    return hub.snapshot().counter(telem::Counter::kOopSpeculativeDiscards);
  }
};

std::unique_ptr<CampaignRun> start_campaign(const WindowCampaign& campaign,
                                            fuzz::BackendKind kind) {
  auto run = std::make_unique<CampaignRun>();
  run->target = proto::target_factory(campaign.project)();
  run->models = pits::pit_for_project(campaign.project);
  fuzz::FuzzerConfig config;
  config.strategy = campaign.strategy;
  config.rng_seed = campaign.rng_seed;
  config.crack_all_seeds = campaign.crack_all_seeds;
  config.distill_interval = campaign.distill_interval;
  config.dedup_capacity = campaign.dedup_capacity;
  config.telemetry = telem::Sink(&run->hub, 0);
  if (kind != fuzz::BackendKind::kInProcess) {
    config.executor = oop_executor_config(campaign.project, kind,
                                          campaign.persistent_budget);
  }
  run->fuzzer =
      std::make_unique<fuzz::Fuzzer>(*run->target, run->models, config);
  return run;
}

/// Steps `run` from step `from` up to (not including) step `to`.
void step_campaign(CampaignRun& run, const WindowCampaign& campaign,
                   std::uint64_t from, std::uint64_t to) {
  for (std::uint64_t i = from; i < to; ++i) {
    if (campaign.before_step) campaign.before_step(*run.fuzzer, i);
    run.fuzzer->step_fast();
  }
}

/// Everything a campaign's future depends on as one canonical byte image:
/// the checkpoint v3 serialisation of the fuzzer's state (rng, both dedup
/// generations, corpus, crashes, retained seeds, queues, execution count,
/// accumulated coverage and paths), with the stats series' wall-clock
/// stamps zeroed.
std::string campaign_image(const fuzz::Fuzzer& fuzzer) {
  par::WorkerState worker;
  worker.fuzzer = fuzzer.capture_checkpoint();
  for (fuzz::Checkpoint& point : worker.fuzzer.stats_points) {
    point.wall_ns = 0;
  }
  supervise::CampaignCheckpoint image;
  image.workers.push_back(std::move(worker));
  return supervise::serialize_checkpoint(image);
}

void expect_same_campaign(const fuzz::Fuzzer& actual,
                          const fuzz::Fuzzer& expected) {
  EXPECT_EQ(actual.executor().executions(), expected.executor().executions());
  EXPECT_EQ(actual.path_count(), expected.path_count());
  EXPECT_EQ(actual.executor().edge_count(), expected.executor().edge_count());
  ASSERT_EQ(actual.retained_seeds().size(), expected.retained_seeds().size());
  for (std::size_t i = 0; i < actual.retained_seeds().size(); ++i) {
    EXPECT_EQ(actual.retained_seeds()[i].bytes,
              expected.retained_seeds()[i].bytes)
        << "retained seed " << i;
  }
  const std::vector<const fuzz::CrashRecord*> actual_crashes =
      actual.crashes().records();
  const std::vector<const fuzz::CrashRecord*> expected_crashes =
      expected.crashes().records();
  ASSERT_EQ(actual_crashes.size(), expected_crashes.size());
  for (std::size_t i = 0; i < actual_crashes.size(); ++i) {
    EXPECT_EQ(actual_crashes[i]->site, expected_crashes[i]->site);
    EXPECT_EQ(actual_crashes[i]->hits, expected_crashes[i]->hits);
    EXPECT_EQ(actual_crashes[i]->first_execution,
              expected_crashes[i]->first_execution);
    EXPECT_EQ(actual_crashes[i]->reproducer, expected_crashes[i]->reproducer);
  }
  const fuzz::FuzzerCheckpoint actual_state = actual.capture_checkpoint();
  const fuzz::FuzzerCheckpoint expected_state = expected.capture_checkpoint();
  EXPECT_TRUE(std::equal(std::begin(actual_state.rng.words),
                         std::end(actual_state.rng.words),
                         std::begin(expected_state.rng.words)));
  EXPECT_EQ(actual.corpus().size(), expected.corpus().size());
  EXPECT_EQ(actual_state.corpus.revision, expected_state.corpus.revision);
  EXPECT_TRUE(campaign_image(actual) == campaign_image(expected))
      << "the campaigns' checkpoint images differ";
}

/// Runs `campaign` in-process and on kPersistent (window depth
/// kNumSlots) and requires the same end state. Returns the persistent
/// run's speculative discards.
std::uint64_t expect_window_matches_in_process(
    const WindowCampaign& campaign) {
  const std::unique_ptr<CampaignRun> inproc =
      start_campaign(campaign, fuzz::BackendKind::kInProcess);
  step_campaign(*inproc, campaign, 0, campaign.steps);
  const std::unique_ptr<CampaignRun> windowed =
      start_campaign(campaign, fuzz::BackendKind::kPersistent);
  EXPECT_EQ(inproc->fuzzer->executor().window_depth(), 1u);
  EXPECT_EQ(windowed->fuzzer->executor().window_depth(), oop::kNumSlots);
  step_campaign(*windowed, campaign, 0, campaign.steps);
  expect_same_campaign(*windowed->fuzzer, *inproc->fuzzer);
  EXPECT_EQ(windowed->fuzzer->executor().executions(), campaign.steps);
  return windowed->discards();
}

TEST(OopWindow, EveryStrategyMatchesInProcess) {
  // Peach takes no feedback, so its window never discards; Peach* and
  // ByteMutation discard after every crack or pool growth.
  for (const fuzz::Strategy strategy :
       {fuzz::Strategy::Peach, fuzz::Strategy::PeachStar,
        fuzz::Strategy::ByteMutation}) {
    SCOPED_TRACE(fuzz::to_string(strategy));
    WindowCampaign campaign;
    campaign.strategy = strategy;
    const std::uint64_t discards = expect_window_matches_in_process(campaign);
    if (strategy == fuzz::Strategy::Peach) {
      EXPECT_EQ(discards, 0u);
    } else {
      EXPECT_GT(discards, 0u);
    }
  }
}

TEST(OopWindow, CrackingEverySeedMatchesInProcess) {
  // Every step cracks, so every step drains the window it filled.
  WindowCampaign campaign;
  campaign.crack_all_seeds = true;
  campaign.steps = 600;
  EXPECT_GE(expect_window_matches_in_process(campaign),
            (campaign.steps - 1) * (oop::kNumSlots - 1));
}

TEST(OopWindow, AutoDistillMatchesInProcess) {
  WindowCampaign campaign;
  campaign.distill_interval = 300;
  campaign.steps = 1500;
  expect_window_matches_in_process(campaign);
}

TEST(OopWindow, ImportsBetweenStepsMatchInProcess) {
  // Peer seeds arrive mid-window: some fresh, some repeats of one another
  // or of packets the campaign already ran, so the queue's dedup skips
  // are exercised too.
  const std::vector<Bytes> peers = packet_batch("libmodbus");
  WindowCampaign campaign;
  campaign.before_step = [&](fuzz::Fuzzer& fuzzer, std::uint64_t step) {
    if (step % 97 != 13) return;
    const std::size_t first = (step / 97) % peers.size();
    for (std::size_t k = 0; k < 3; ++k) {
      fuzzer.import_external_seed(peers[(first + k) % peers.size()]);
    }
  };
  EXPECT_GT(expect_window_matches_in_process(campaign), 0u);
}

TEST(OopWindow, DedupRotationsInsideWindowsMatchInProcess) {
  // Capacities 8 and 64 rotate every 4 and 32 fresh packets: windows
  // constantly meet the rotation threshold, where generation must stop
  // short of it. lib60870's models repeat packets often enough that a
  // window spanning a rotation would dedup against a generation the
  // one-at-a-time loop had already dropped.
  for (const std::size_t capacity : {std::size_t{8}, std::size_t{64}}) {
    for (const fuzz::Strategy strategy :
         {fuzz::Strategy::Peach, fuzz::Strategy::PeachStar}) {
      SCOPED_TRACE(fuzz::to_string(strategy) + " capacity " +
                   std::to_string(capacity));
      WindowCampaign campaign;
      campaign.project = "lib60870";
      campaign.strategy = strategy;
      campaign.dedup_capacity = capacity;
      expect_window_matches_in_process(campaign);
    }
  }
}

TEST(OopWindow, CheckpointTakenMidWindowResumesBitForBit) {
  // A checkpoint holds only committed state: restored into a fresh
  // fuzzer, it continues exactly like the uninterrupted campaign, and
  // taking it disturbs nothing in flight.
  WindowCampaign campaign;
  constexpr std::uint64_t kCut = 700;
  const std::unique_ptr<CampaignRun> uninterrupted =
      start_campaign(campaign, fuzz::BackendKind::kPersistent);
  step_campaign(*uninterrupted, campaign, 0, campaign.steps);

  const std::unique_ptr<CampaignRun> interrupted =
      start_campaign(campaign, fuzz::BackendKind::kPersistent);
  step_campaign(*interrupted, campaign, 0, kCut);
  const oop::OutOfProcessExecutor* transport =
      interrupted->fuzzer->executor().oop_backend();
  ASSERT_NE(transport, nullptr);
  EXPECT_GT(transport->in_flight(), 0u) << "no window to cut through";
  const fuzz::FuzzerCheckpoint checkpoint =
      interrupted->fuzzer->capture_checkpoint();
  EXPECT_EQ(checkpoint.executions, kCut);

  const std::unique_ptr<CampaignRun> resumed =
      start_campaign(campaign, fuzz::BackendKind::kPersistent);
  resumed->fuzzer->restore_checkpoint(checkpoint);
  step_campaign(*resumed, campaign, kCut, campaign.steps);
  expect_same_campaign(*resumed->fuzzer, *uninterrupted->fuzzer);

  step_campaign(*interrupted, campaign, kCut, campaign.steps);
  expect_same_campaign(*interrupted->fuzzer, *uninterrupted->fuzzer);

  const std::unique_ptr<CampaignRun> inproc =
      start_campaign(campaign, fuzz::BackendKind::kInProcess);
  step_campaign(*inproc, campaign, 0, campaign.steps);
  expect_same_campaign(*uninterrupted->fuzzer, *inproc->fuzzer);
}

TEST(OopWindow, Lib60870CrashSitesHitMidWindowMatchInProcess) {
  // lib60870's Table-I crash sites, queued as peer seeds so they land in
  // the middle of a window with requests in flight behind them. K = 3
  // retires children inside windows, so the requests after a crash are
  // served by the next child.
  const Bytes start_dt = {0x68, 0x04, 0x07, 0x00, 0x00, 0x00};
  const auto i_frame = [&](std::initializer_list<std::uint8_t> asdu) {
    Bytes out = start_dt;
    out.push_back(0x68);
    out.push_back(static_cast<std::uint8_t>(4 + asdu.size()));
    out.insert(out.end(), {0x00, 0x00, 0x00, 0x00});
    out.insert(out.end(), asdu);
    return out;
  };
  const std::vector<Bytes> crashes = {
      i_frame({100, 1}),                                 // getCOT OOB
      i_frame({13, 0x85, 6, 0, 1, 0, 0x01, 0x00, 0x00}),  // sequence OOB
  };
  WindowCampaign campaign;
  campaign.project = "lib60870";
  campaign.persistent_budget = 3;
  campaign.steps = 1500;
  campaign.before_step = [&](fuzz::Fuzzer& fuzzer, std::uint64_t step) {
    if (step % 211 != 50) return;
    fuzzer.import_external_seed(start_dt);
    fuzzer.import_external_seed(crashes[(step / 211) % crashes.size()]);
    fuzzer.import_external_seed(i_frame({100, 1, 6, 0, 1, 0}));
  };
  expect_window_matches_in_process(campaign);

  const std::unique_ptr<CampaignRun> windowed =
      start_campaign(campaign, fuzz::BackendKind::kPersistent);
  step_campaign(*windowed, campaign, 0, campaign.steps);
  EXPECT_GE(windowed->fuzzer->crashes().unique_count(), 1u);
  EXPECT_GT(windowed->hub.snapshot().counter(
                telem::Counter::kOopChildRecycles),
            campaign.steps / 3);
}

}  // namespace
}  // namespace icsfuzz
