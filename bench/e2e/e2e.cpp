// icsfuzz-e2e — the whole-campaign benchmark driver (bench/e2e/README.md).
//
//   icsfuzz-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--smoke] [--work-dir <dir>]
//
// One workload per process. A run is a fixed number of rounds, one per
// kRoundSeconds of --seconds; a round is one complete fixed-budget campaign
// through the entry points a user calls: fuzz::Fuzzer::step_fast for the
// three single-fuzzer workloads, supervise::CampaignSupervisor::run for the
// supervised one. Round r fuzzes with round_seed(--seed, r), so a run
// samples set-up, throughput and coverage over several campaigns and
// reports each metric's median. Correctness is checked outside the timed
// windows: the first campaign is re-run in-process (the "twin") and must
// end with the same fingerprint; a supervised campaign must reload from
// its final checkpoint.
//
// --trace 1 instead runs the first campaign untraced, traced and untraced
// again (plus the twin, traced), and reports the per-layer breakdown: spans placed around calls into each
// layer from this file (nothing inside src/ is instrumented for it), the
// engine's own telemetry counters read through a bench-owned hub, and
// replays of each layer's public functions on the campaign's final state.
// The spans are written to <work-dir>/trace-<workload>.json in Chrome
// trace-event format.
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
// The exit code is 0 only when every correctness check passed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzzer/cracker.hpp"
#include "fuzzer/fuzzer.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "session/framing.hpp"
#include "session/sequencer.hpp"
#include "supervise/checkpoint.hpp"
#include "supervise/supervisor.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace icsfuzz;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// ------------------------------------------------------------- workloads --

enum class Shape : std::uint8_t {
  kInProcess,   ///< Fuzzer, in-process backend
  kPersistent,  ///< Fuzzer, persistent fork-server shim
  kTcpSession,  ///< Fuzzer with the session sequencer, kTcp shim
  kSupervised,  ///< CampaignSupervisor, in-process workers
};

struct Workload {
  const char* name;
  const char* project;
  Shape shape;
  /// Executions per round: sessions for kTcpSession, per worker for
  /// kSupervised (a multiple of 500, so even the 1/50 smoke budget splits
  /// into kCheckpointsPerRound equal chunks).
  std::uint64_t budget;
};

// Each workload loads a different layer (README.md gives the reasons).
// Budgets size a round at about kRoundSeconds on a 4-core x86-64 VM.
constexpr Workload kWorkloads[] = {
    {"mms-inproc", "libiec61850", Shape::kInProcess, 160000},
    {"cs104-persistent", "lib60870", Shape::kPersistent, 70000},
    {"iec104-tcp-session", "IEC104", Shape::kTcpSession, 1250},
    {"modbus-supervised-2w", "libmodbus", Shape::kSupervised, 150000},
};

constexpr double kRoundSeconds = 1.25;
constexpr std::size_t kSupervisedWorkers = 2;
constexpr std::uint64_t kSyncInterval = 1024;
constexpr std::uint64_t kCheckpointsPerRound = 10;
// The supervisor notices a finished chunk only at its watchdog poll. At the
// shipped 200 ms, each of a round's ~100 ms chunks would idle until the
// next poll and the workload would time the poll, not the fuzzing,
// exchange and checkpoint layers (README.md has the measurement).
constexpr int kWatchdogPollMs = 1;
constexpr std::uint64_t kSmokeDivisor = 50;
// A scheduler stall on a shared host must not turn into a deadline kill:
// that would count as a failed execution and fork the trajectory away from
// the in-process twin. The fault-injection suites cover the deadline path.
constexpr int kExecDeadlineMs = 30000;
// Calls per generation replay in traced runs.
constexpr std::size_t kGenerateReplays = 2000;
constexpr std::size_t kBatchReplays = 64;

bool is_single_fuzzer(const Workload& workload) {
  return workload.shape != Shape::kSupervised;
}

bool out_of_process(const Workload& workload) {
  return workload.shape == Shape::kPersistent ||
         workload.shape == Shape::kTcpSession;
}

/// Binds the driver, and through inheritance the target server it spawns,
/// to the core it runs on, under SCHED_BATCH (no wake-up preemption) — one
/// campaign per core, as afl-fuzz binds its instances. Unbound on a VM, the
/// client/server ping-pong crosses vCPUs and every wake-up of a halted one
/// pays host-dependent latency that flips between two levels for seconds
/// at a time; bound, rounds repeat within a few percent (README.md).
void bind_to_current_core() {
  const int cpu = ::sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  const sched_param param{};
  if (cpu < 0 || ::sched_setaffinity(0, sizeof set, &set) != 0 ||
      ::sched_setscheduler(0, SCHED_BATCH, &param) != 0) {
    std::fprintf(stderr, "icsfuzz-e2e: cannot bind to one core; the "
                         "transport numbers will be noisier\n");
  }
}

/// Campaign seed of round `round` (round 0 fuzzes with --seed itself).
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return seed + round * 0x9E3779B97F4A7C15ULL;
}

// --------------------------------------------------------------- options --

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = "build/e2e/work";

  [[nodiscard]] std::uint64_t budget() const {
    return smoke ? workload->budget / kSmokeDivisor : workload->budget;
  }
  [[nodiscard]] std::uint64_t rounds() const {
    return smoke ? 1
                 : std::max<std::uint64_t>(
                       1, static_cast<std::uint64_t>(
                              std::llround(seconds / kRoundSeconds)));
  }
};

bool parse_u64(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && ptr != text;
}

std::optional<Options> parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      for (const Workload& workload : kWorkloads) {
        if (std::strcmp(workload.name, value) == 0) options.workload = &workload;
      }
      if (options.workload == nullptr) return std::nullopt;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      options.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, number)) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && parse_u64(value, number) && number <= 1) {
      options.trace = number == 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (options.workload == nullptr) return std::nullopt;
  return options;
}

// ---------------------------------------------------------------- tracing --

/// Spans kept in memory and written once, at exit, in Chrome trace-event
/// format (chrome://tracing, ui.perfetto.dev). Every span carries its own
/// id and its parent's id (0 for a root) in `args`; step spans also carry
/// the execution count they were sampled on.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Ids are reserved up front so a parent can be named before it closes.
  std::uint64_t reserve() { return next_id_++; }

  void add(std::uint64_t id, const char* name, const char* category,
           Clock::time_point start, Clock::time_point end,
           std::uint64_t parent, std::int64_t exec = -1) {
    spans_.push_back(Span{name, category, ns_between(origin_, start),
                          ns_between(start, end), id, parent, exec});
  }

  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu",
                   span.name, span.category,
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.duration_ns) / 1e3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent));
      if (span.exec >= 0) {
        std::fprintf(out, ", \"exec\": %lld", static_cast<long long>(span.exec));
      }
      std::fprintf(out, "}}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* category;
    std::uint64_t start_ns;
    std::uint64_t duration_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t exec;
  };

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Times `calls` invocations of `call(i)`, one child span each under a
/// block span named `name`; returns the mean microseconds per call.
template <typename Call>
double replay(Tracer& tracer, std::uint64_t parent, const char* name,
              std::size_t calls, Call&& call) {
  const std::uint64_t block = tracer.reserve();
  const Clock::time_point block_start = Clock::now();
  std::uint64_t total_ns = 0;
  for (std::size_t i = 0; i < calls; ++i) {
    const Clock::time_point start = Clock::now();
    call(i);
    const Clock::time_point end = Clock::now();
    total_ns += ns_between(start, end);
    tracer.add(tracer.reserve(), name, "replay", start, end, block);
  }
  tracer.add(block, name, "replay", block_start, Clock::now(), parent);
  return calls > 0 ? static_cast<double>(total_ns) / 1e3 /
                         static_cast<double>(calls)
                   : 0.0;
}

/// process() time of one target instance; cache-line aligned so the two
/// supervised workers never write the same line.
struct alignas(64) ProcessTally {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// Bench-side ProtocolTarget wrapper. With a tally it times every process
/// call (protocols.process_us); with `first_return` it stamps the moment
/// the first execution returns, which ends the supervised workload's
/// set-up (the supervisor exposes no earlier observable).
class TimedTarget final : public ProtocolTarget {
 public:
  TimedTarget(std::unique_ptr<ProtocolTarget> inner, ProcessTally* tally,
              std::atomic<Clock::rep>* first_return)
      : inner_(std::move(inner)), tally_(tally), first_return_(first_return) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void reset() override { inner_->reset(); }
  Bytes process(ByteSpan packet) override {
    Bytes response;
    process_into(packet, response);
    return response;
  }
  void process_into(ByteSpan packet, Bytes& response) override {
    if (tally_ == nullptr) {
      inner_->process_into(packet, response);
    } else {
      const Clock::time_point start = Clock::now();
      inner_->process_into(packet, response);
      tally_->ns += ns_between(start, Clock::now());
      ++tally_->calls;
    }
    if (first_return_ != nullptr &&
        first_return_->load(std::memory_order_relaxed) == 0) {
      Clock::rep unset = 0;
      first_return_->compare_exchange_strong(
          unset, Clock::now().time_since_epoch().count());
    }
  }

 private:
  std::unique_ptr<ProtocolTarget> inner_;
  ProcessTally* tally_;
  std::atomic<Clock::rep>* first_return_;
};

// ---------------------------------------------------------------- rounds --

/// What a campaign found — identical across repeats of one seed, and
/// between a backend and its in-process twin.
struct Fingerprint {
  std::size_t paths = 0;
  std::size_t edges = 0;
  std::size_t unique_crashes = 0;
  std::vector<Bytes> retained;
  std::vector<std::uint64_t> session_states;

  bool operator==(const Fingerprint&) const = default;
};

struct Round {
  std::uint64_t seed = 0;
  double setup_s = 0.0;
  /// The timed window: everything after the first execution returned.
  double wall_s = 0.0;
  std::uint64_t timed_execs = 0;
  std::uint64_t attempted = 0;
  Fingerprint fingerprint;
  telem::Snapshot counters;
  /// Empty when every check of the round passed.
  std::string problem;

  // Traced rounds: per-step durations and target time.
  std::vector<std::uint32_t> step_ns;
  ProcessTally process;
  // Final state the layer replays run on (traced rounds only).
  fuzz::CorpusSnapshot corpus;
  std::vector<fuzz::RetainedSeed> retained;
  std::size_t corpus_puzzles = 0;
  // Supervised rounds.
  std::uint64_t seeds_published = 0;
  std::uint64_t seeds_imported = 0;
  std::uint64_t puzzles_imported = 0;
  std::uint64_t checkpoints_saved = 0;
  double checkpoint_mb = 0.0;
  double checkpoint_load_ms = 0.0;
  double checkpoint_save_ms = 0.0;

  [[nodiscard]] double execs_per_sec() const {
    return ratio(static_cast<double>(timed_execs), wall_s);
  }
  /// Executions lost to infrastructure: lost servers and deadline kills.
  /// Target findings are not failures.
  [[nodiscard]] std::uint64_t failed() const {
    return counters.counter(telem::Counter::kOopServerLost) +
           counters.counter(telem::Counter::kOopHangs);
  }
};

/// The Fuzzer configuration of a single-fuzzer workload (`twin` selects
/// the in-process backend); the shipped defaults for the supervised one.
fuzz::FuzzerConfig fuzzer_config(const Workload& workload,
                                 std::uint64_t seed, bool twin) {
  fuzz::FuzzerConfig config;
  config.rng_seed = seed;
  fuzz::ExecBackendConfig& backend = config.executor.backend;
  backend.exec_timeout_ms = kExecDeadlineMs;
  if (workload.shape == Shape::kTcpSession) {
    const session::Framing framing =
        session::framing_for_project(workload.project);
    config.session.enabled = true;
    config.session.framing = framing;
    config.session.project = workload.project;
    backend.session.framing = framing;
    if (!twin) {
      backend.kind = fuzz::BackendKind::kTcp;
      backend.target_cmd = {ICSFUZZ_SHIM_PATH, "--project", workload.project,
                            "--tcp"};
    }
  } else if (workload.shape == Shape::kPersistent && !twin) {
    backend.kind = fuzz::BackendKind::kPersistent;
    backend.target_cmd = {ICSFUZZ_SHIM_PATH, "--project", workload.project};
  }
  return config;
}

/// Every recorded crash's reproducer must raise the same (kind, site) again
/// on a fresh in-process executor.
std::string check_crashes_reproduce(const Workload& workload,
                                    const fuzz::CrashDb& crashes) {
  fuzz::ExecutorConfig config;
  if (workload.shape == Shape::kTcpSession) {
    config.backend.session.framing =
        session::framing_for_project(workload.project);
  }
  fuzz::Executor executor(config);
  const std::unique_ptr<ProtocolTarget> target =
      proto::target_factory(workload.project)();
  for (const fuzz::CrashRecord* record : crashes.records()) {
    const fuzz::ExecResult& result = executor.run(
        *target, ByteSpan(record->reproducer.data(), record->reproducer.size()));
    const bool again = std::any_of(
        result.faults.begin(), result.faults.end(),
        [&](const san::FaultReport& fault) {
          return fault.kind == record->kind && fault.site == record->site;
        });
    if (!again) return "a crash reproducer did not reproduce";
  }
  return {};
}

/// Executions lost so far by a fuzzer whose sink writes shard 0 of `hub`.
/// Polled between steps: a target server that keeps dying then fails the
/// round at its first loss, instead of at every later session's deadline.
std::uint64_t lost_so_far(telem::Telemetry& hub) {
  const telem::Shard& shard = hub.metrics().shard(0);
  const auto load = [&](telem::Counter counter) {
    return shard.counters[static_cast<std::size_t>(counter)].load(
        std::memory_order_relaxed);
  };
  return load(telem::Counter::kOopServerLost) +
         load(telem::Counter::kOopHangs);
}

/// One single-fuzzer campaign of `budget` executions. `twin` swaps the
/// workload's backend for the in-process one.
Round run_fuzzer_round(const Workload& workload, const Options& options,
                       std::uint64_t seed, Tracer* tracer, bool twin) {
  Round round;
  round.seed = seed;
  telem::Telemetry hub;
  const std::uint64_t budget = options.budget();
  fuzz::FuzzerConfig config = fuzzer_config(workload, seed, twin);
  config.telemetry = telem::Sink(&hub, 0);
  if (tracer != nullptr) round.step_ns.reserve(budget);

  const Clock::time_point start = Clock::now();
  const model::DataModelSet models = pits::pit_for_project(workload.project);
  std::unique_ptr<ProtocolTarget> target =
      proto::target_factory(workload.project)();
  if (tracer != nullptr) {
    target = std::make_unique<TimedTarget>(std::move(target), &round.process,
                                           nullptr);
  }
  fuzz::Fuzzer fuzzer(*target, models, config);
  fuzzer.step_fast();
  const Clock::time_point setup_end = Clock::now();

  const auto lost = [&](std::uint64_t i) {
    return i % telem::kLatencySampleInterval == 0 && lost_so_far(hub) != 0;
  };
  if (tracer == nullptr) {
    for (std::uint64_t i = 1; i < budget && !lost(i); ++i) fuzzer.step_fast();
  } else {
    const std::uint64_t campaign = tracer->reserve();
    for (std::uint64_t i = 1; i < budget && !lost(i); ++i) {
      const std::uint64_t exec = fuzzer.executor().executions();
      const Clock::time_point step_start = Clock::now();
      fuzzer.step_fast();
      const Clock::time_point step_end = Clock::now();
      round.step_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(ns_between(step_start, step_end),
                                  UINT32_MAX)));
      if (exec % telem::kLatencySampleInterval == 0) {
        tracer->add(tracer->reserve(), "step_fast", "fuzzer", step_start,
                    step_end, campaign, static_cast<std::int64_t>(exec));
      }
    }
    tracer->add(tracer->reserve(), "setup", "campaign", start, setup_end, 0);
    tracer->add(campaign, twin ? "twin_campaign" : "campaign", "campaign",
                setup_end, Clock::now(), 0);
  }
  const Clock::time_point end = Clock::now();
  fuzzer.finish();

  round.setup_s = seconds_between(start, setup_end);
  round.wall_s = seconds_between(setup_end, end);
  round.attempted = fuzzer.executor().executions();
  round.timed_execs = round.attempted - 1;
  round.counters = hub.snapshot();
  Fingerprint& fp = round.fingerprint;
  fp.paths = fuzzer.path_count();
  fp.edges = fuzzer.executor().edge_count();
  fp.unique_crashes = fuzzer.crashes().unique_count();
  for (const fuzz::RetainedSeed& retained : fuzzer.retained_seeds()) {
    fp.retained.push_back(retained.bytes);
  }
  fp.session_states = fuzzer.executor().session_states_snapshot();
  if (round.attempted != budget || fp.paths == 0 || fp.edges == 0) {
    round.problem = "campaign fell short of its budget or found no coverage";
  } else {
    round.problem = check_crashes_reproduce(workload, fuzzer.crashes());
  }
  if (tracer != nullptr) {
    round.corpus = fuzzer.corpus().snapshot();
    round.retained = fuzzer.retained_seeds();
    round.corpus_puzzles = fuzzer.corpus().size();
  }
  return round;
}

/// One supervised campaign: kSupervisedWorkers workers of `budget`
/// iterations each, checkpointed kCheckpointsPerRound times.
Round run_supervised_round(const Workload& workload, const Options& options,
                           std::uint64_t seed, Tracer* tracer) {
  Round round;
  round.seed = seed;
  telem::Telemetry hub;
  const std::uint64_t budget = options.budget();
  const std::string image =
      options.work_dir + "/" + workload.name + ".checkpoint";
  std::filesystem::remove(image);
  ProcessTally tallies[kSupervisedWorkers];
  std::size_t targets_built = 0;
  std::atomic<Clock::rep> first_return{0};
  const fuzz::TargetFactory make_target =
      proto::target_factory(workload.project);

  const Clock::time_point start = Clock::now();
  const model::DataModelSet models = pits::pit_for_project(workload.project);
  supervise::SupervisorConfig config;
  config.campaign.workers = kSupervisedWorkers;
  config.campaign.iterations_per_worker = budget;
  config.campaign.base_seed = seed;
  config.campaign.sync_interval = kSyncInterval;
  config.campaign.fuzzer.telemetry = telem::Sink(&hub, 0);
  config.checkpoint_path = image;
  config.checkpoint_interval = budget / kCheckpointsPerRound;
  config.resume = false;
  config.watchdog_poll_ms = kWatchdogPollMs;
  supervise::CampaignSupervisor supervisor(
      [&]() -> std::unique_ptr<ProtocolTarget> {
        ProcessTally* tally =
            tracer != nullptr
                ? &tallies[std::min(targets_built++, kSupervisedWorkers - 1)]
                : nullptr;
        return std::make_unique<TimedTarget>(make_target(), tally,
                                             &first_return);
      },
      models, config);
  const Clock::time_point run_entry = Clock::now();
  const supervise::SupervisorResult result = supervisor.run();
  const Clock::time_point end = Clock::now();
  const Clock::time_point first_exec{Clock::duration(first_return.load())};

  round.setup_s = seconds_between(start, first_exec);
  round.wall_s = seconds_between(first_exec, end);
  round.attempted = result.campaign.total_executions;
  round.timed_execs = round.attempted > 0 ? round.attempted - 1 : 0;
  round.counters = hub.snapshot();
  round.fingerprint.paths = result.campaign.global_paths;
  round.fingerprint.edges = result.campaign.global_edges;
  round.fingerprint.unique_crashes =
      result.campaign.pooled_crashes.unique_count();
  round.checkpoints_saved = result.checkpoints_saved;
  for (const par::WorkerReport& report : result.campaign.workers) {
    round.seeds_published += report.seeds_published;
    round.seeds_imported += report.seeds_imported;
    round.puzzles_imported += report.puzzles_imported;
    round.corpus_puzzles += report.corpus_size;
  }
  for (const ProcessTally& tally : tallies) {
    round.process.calls += tally.calls;
    round.process.ns += tally.ns;
  }
  if (tracer != nullptr) {
    tracer->add(tracer->reserve(), "setup", "campaign", start, first_exec, 0);
    tracer->add(tracer->reserve(), "supervisor_run", "campaign", run_entry,
                end, 0);
  }

  // The final image must reload and describe the finished campaign.
  const Clock::time_point load_start = Clock::now();
  const std::optional<supervise::CampaignCheckpoint> checkpoint =
      supervise::load_checkpoint(image);
  const Clock::time_point load_end = Clock::now();
  if (result.interrupted || first_return.load() == 0 ||
      round.attempted != budget * kSupervisedWorkers ||
      round.checkpoints_saved != kCheckpointsPerRound) {
    round.problem = "supervised campaign did not complete its budget";
  } else if (!checkpoint || checkpoint->completed_iterations != budget ||
             checkpoint->iterations_per_worker != budget ||
             checkpoint->workers.size() != kSupervisedWorkers) {
    round.problem = "final checkpoint does not reload as the full campaign";
  } else {
    round.problem =
        check_crashes_reproduce(workload, result.campaign.pooled_crashes);
  }

  if (tracer != nullptr && checkpoint) {
    round.checkpoint_mb =
        static_cast<double>(std::filesystem::file_size(image)) / (1 << 20);
    round.checkpoint_load_ms = seconds_between(load_start, load_end) * 1e3;
    const std::string copy = image + ".copy";
    const Clock::time_point save_start = Clock::now();
    if (supervise::save_checkpoint(*checkpoint, copy)) {
      round.problem = "checkpoint save failed";
    }
    const Clock::time_point save_end = Clock::now();
    round.checkpoint_save_ms = seconds_between(save_start, save_end) * 1e3;
    tracer->add(tracer->reserve(), "load_checkpoint", "replay", load_start,
                load_end, 0);
    tracer->add(tracer->reserve(), "save_checkpoint", "replay", save_start,
                save_end, 0);
    std::filesystem::remove(copy);
    // Worker 0's final state feeds the layer replays.
    round.corpus = checkpoint->workers[0].fuzzer.corpus;
    round.retained = checkpoint->workers[0].fuzzer.retained;
  }
  std::filesystem::remove(image);
  return round;
}

Round run_round(const Workload& workload, const Options& options,
                std::uint64_t seed, Tracer* tracer, bool twin = false) {
  return workload.shape == Shape::kSupervised
             ? run_supervised_round(workload, options, seed, tracer)
             : run_fuzzer_round(workload, options, seed, tracer, twin);
}

/// The first problem among `rounds` and the twin; empty when all is well.
/// Campaigns of one seed must reach the same fingerprint whatever the
/// backend and whether traced or not (the supervised workers' sync
/// interleaving is not deterministic, so they are exempt).
std::string check_rounds(const Workload& workload,
                         const std::vector<Round>& rounds,
                         const std::optional<Round>& twin) {
  const Round& first = rounds.front();
  for (const Round& round : rounds) {
    if (round.failed() != 0) return "executions were lost to infrastructure";
    if (!round.problem.empty()) return round.problem;
    if (is_single_fuzzer(workload) && round.seed == first.seed &&
        !(round.fingerprint == first.fingerprint)) {
      return "the traced campaign diverged from the untraced one";
    }
  }
  if (twin) {
    if (!twin->problem.empty()) return "in-process twin: " + twin->problem;
    if (!(twin->fingerprint == first.fingerprint)) {
      return "the in-process twin diverged from the first campaign";
    }
  }
  return {};
}

// --------------------------------------------------------------- replays --

struct Replays {
  double crack_us = 0.0;
  double batch_us = 0.0;
  double batch_seeds_per_call = 0.0;
  double semantic_us = 0.0;
  double instantiate_us = 0.0;
  double session_generate_us = 0.0;
  double session_mutate_us = 0.0;
};

/// Times each generation and crack layer's public functions on the
/// campaign's final corpus and retained seeds; a layer's in-campaign cost
/// is its call count times this mean.
Replays replay_layers(const Workload& workload, const Round& round,
                      Tracer& tracer) {
  Replays out;
  const model::DataModelSet models = pits::pit_for_project(workload.project);
  const std::vector<model::DataModel>& all = models.models();
  const fuzz::FuzzerConfig config =
      fuzzer_config(workload, round.seed, /*twin=*/true);
  const std::uint64_t parent = tracer.reserve();
  const Clock::time_point start = Clock::now();
  Rng rng(round.seed);
  Bytes scratch;

  fuzz::PuzzleCorpus cracked(config.corpus);
  cracked.restore(round.corpus);
  const fuzz::FileCracker cracker;
  out.crack_us = replay(tracer, parent, "crack", round.retained.size(),
                        [&](std::size_t i) {
                          cracker.crack(models, round.retained[i].bytes,
                                        cracked, rng);
                        });

  fuzz::PuzzleCorpus corpus(config.corpus);
  corpus.restore(round.corpus);
  const fuzz::SemanticGenerator semantic(config.semantic, config.mutators);
  std::size_t batch_seeds = 0;
  out.batch_us =
      replay(tracer, parent, "generate_batch", kBatchReplays, [&](std::size_t) {
        batch_seeds += semantic.generate_batch(rng.pick(all), corpus, rng).size();
      });
  out.batch_seeds_per_call =
      static_cast<double>(batch_seeds) / static_cast<double>(kBatchReplays);
  out.semantic_us = replay(
      tracer, parent, "semantic_generate", kGenerateReplays, [&](std::size_t) {
        semantic.generate_into(rng.pick(all), corpus, rng, scratch);
      });
  const fuzz::ModelInstantiator instantiator(config.mutators);
  out.instantiate_us = replay(
      tracer, parent, "instantiate", kGenerateReplays, [&](std::size_t) {
        instantiator.generate_into(rng.pick(all), rng, scratch);
      });

  if (workload.shape == Shape::kTcpSession) {
    session::SessionSequencer sequencer(config.session, models, instantiator);
    out.session_generate_us =
        replay(tracer, parent, "session_generate", kGenerateReplays,
               [&](std::size_t) { sequencer.generate_into(rng, scratch); });
    out.session_mutate_us = replay(
        tracer, parent, "session_mutate", round.retained.size(),
        [&](std::size_t i) {
          const Bytes& stream = round.retained[i].bytes;
          sequencer.mutate_stream_into(ByteSpan(stream.data(), stream.size()),
                                       rng, scratch);
        });
  }
  tracer.add(parent, "replays", "replay", start, Clock::now(), 0);
  return out;
}

// ---------------------------------------------------------------- report --

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back(Metric{std::move(name), value, unit});
  }

  [[nodiscard]] bool all_finite() const {
    return std::all_of(metrics_.begin(), metrics_.end(),
                       [](const Metric& m) { return std::isfinite(m.value); });
  }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& metric = metrics_[i];
      // Shortest round-trip form: every digit the measurement has.
      char number[32];
      const double value = std::isfinite(metric.value) ? metric.value : 0.0;
      const auto written = std::to_chars(number, number + sizeof number, value);
      line += i == 0 ? "\"" : ", \"";
      line += metric.name + "\": {\"value\": ";
      line.append(number, written.ptr);
      line += ", \"unit\": \"";
      line += metric.unit;
      line += "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

/// Peak resident set of this process plus its largest reaped child (the
/// fork-server or TCP-server shim), in MiB.
double peak_rss_mib() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

double percentile_us(std::vector<std::uint32_t> values, double fraction) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(fraction * static_cast<double>(values.size())));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return static_cast<double>(values[rank]) / 1e3;
}

double exec_mean_us(const Round& round) {
  return round.counters.histogram(telem::Histogram::kExecLatencyNs).mean() /
         1e3;
}

double process_mean_us(const Round& round) {
  return ratio(static_cast<double>(round.process.ns) / 1e3,
               static_cast<double>(round.process.calls));
}

double step_total_us(const Round& round) {
  return std::accumulate(round.step_ns.begin(), round.step_ns.end(), 0.0) /
         1e3;
}

double step_mean_us(const Round& round) {
  return ratio(step_total_us(round), static_cast<double>(round.step_ns.size()));
}

void report_end_to_end(const std::vector<Round>& rounds, double peak_rss,
                       Report& report) {
  std::vector<double> setup;
  std::vector<double> rate;
  std::vector<double> paths;
  std::vector<double> edges;
  for (const Round& round : rounds) {
    setup.push_back(round.setup_s);
    rate.push_back(round.execs_per_sec());
    paths.push_back(static_cast<double>(round.fingerprint.paths));
    edges.push_back(static_cast<double>(round.fingerprint.edges));
  }
  report.add("setup_s", median(setup), "s");
  report.add("execs_per_sec", median(rate), "execs/s");
  report.add("paths", median(paths), "count");
  report.add("edges", median(edges), "count");
  report.add("peak_rss_mb", peak_rss, "MiB");
}

/// The per-layer breakdown of one traced round. `oop_twin` is the
/// in-process re-run of an out-of-process workload (null otherwise);
/// `untraced_rate` is the same campaign's throughput without tracing.
void report_layers(const Workload& workload, const Round& traced,
                   double untraced_rate, const Round* oop_twin,
                   const Replays& replays, std::uint64_t attempted,
                   std::uint64_t failed, Report& report) {
  using telem::Counter;
  using telem::Histogram;
  const telem::Snapshot& c = traced.counters;
  const auto count = [&](Counter counter) {
    return static_cast<double>(c.counter(counter));
  };
  const bool supervised = workload.shape == Shape::kSupervised;
  // Shares are of thread time: the supervised workers run side by side.
  // A checkpoint blocks every worker, so its share is the same of either.
  const double busy_us =
      traced.wall_s * 1e6 * (supervised ? kSupervisedWorkers : 1);

  // The engine samples exec latency on every 64th execution, which aliases
  // with the persistent child's 1024-execution budget: every recycle's
  // fork lands in the sample. Out of process, the transport is therefore
  // the step-time difference against the in-process twin, which runs the
  // identical trajectory, and the exec time is the twin's plus transport.
  const double transport_us =
      oop_twin != nullptr ? step_mean_us(traced) - step_mean_us(*oop_twin)
                          : 0.0;
  const double exec_us = oop_twin != nullptr
                             ? exec_mean_us(*oop_twin) + transport_us
                             : exec_mean_us(traced);
  const double exec_share =
      100.0 * ratio(exec_us * static_cast<double>(traced.timed_execs), busy_us);
  const double crack_runs = count(Counter::kCrackRuns);
  const double crack_share =
      100.0 * ratio(crack_runs * replays.crack_us, busy_us);
  const double batch_seeds = count(Counter::kBatchSeeds);
  const double batch_calls = ratio(batch_seeds, replays.batch_seeds_per_call);
  const double batch_share =
      100.0 * ratio(batch_calls * replays.batch_us, busy_us);
  const double checkpoint_share =
      100.0 * ratio(static_cast<double>(traced.checkpoints_saved) *
                        traced.checkpoint_save_ms * 1e3,
                    traced.wall_s * 1e6);

  report.add("fuzzer.step_p50_us", percentile_us(traced.step_ns, 0.50), "us");
  report.add("fuzzer.step_p99_us", percentile_us(traced.step_ns, 0.99), "us");
  report.add("fuzzer.exec_mean_us", exec_us, "us");
  report.add("fuzzer.exec_share_pct", exec_share, "%");
  report.add("fuzzer.crack_runs", crack_runs, "count");
  report.add("fuzzer.crack_us", replays.crack_us, "us");
  report.add("fuzzer.crack_share_pct", crack_share, "%");
  report.add("fuzzer.puzzles_per_crack",
             ratio(static_cast<double>(traced.corpus_puzzles), crack_runs),
             "count");
  report.add("fuzzer.batch_seeds", batch_seeds, "count");
  report.add("fuzzer.batch_generate_us", replays.batch_us, "us");
  report.add("fuzzer.batch_share_pct", batch_share, "%");
  report.add("fuzzer.semantic_generate_us", replays.semantic_us, "us");
  report.add("model.instantiate_us", replays.instantiate_us, "us");
  report.add("fuzzer.residual_share_pct",
             100.0 - exec_share - crack_share - batch_share - checkpoint_share,
             "%");
  report.add("fuzzer.unique_crashes",
             static_cast<double>(traced.fingerprint.unique_crashes), "count");
  report.add("fuzzer.failed_exec_pct",
             100.0 * ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
             "%");

  // In-process figures come from the twin when the backend is out of
  // process.
  const Round& in_process = oop_twin != nullptr ? *oop_twin : traced;
  const double process_us = process_mean_us(in_process);
  report.add("protocols.process_us", process_us, "us");
  report.add("coverage.analysis_us", exec_mean_us(in_process) - process_us,
             "us");
  report.add("coverage.dirty_words_mean",
             c.histogram(Histogram::kTraceDirtyWords).mean(), "count");

  const bool persistent = workload.shape == Shape::kPersistent;
  report.add("exec_oop.transport_us", persistent ? transport_us : 0.0, "us");
  report.add("exec_oop.child_recycles", count(Counter::kOopChildRecycles),
             "count");
  report.add("exec_oop.restarts", count(Counter::kOopRestarts), "count");
  report.add("exec_oop.hangs", count(Counter::kOopHangs), "count");
  report.add("exec_oop.server_lost", count(Counter::kOopServerLost), "count");
  report.add("exec_oop.execs_per_child_mean",
             c.histogram(Histogram::kOopIterationsPerChild).mean(), "count");

  const bool tcp = workload.shape == Shape::kTcpSession;
  const double messages = ratio(count(Counter::kSessionMessages),
                                count(Counter::kSessionsExecuted));
  report.add("session.messages_per_exec", messages, "count");
  report.add("session.states",
             static_cast<double>(traced.fingerprint.session_states.size()),
             "count");
  report.add("session.transport_us", tcp ? transport_us : 0.0, "us");
  report.add("session.message_rtt_us",
             tcp ? ratio(transport_us, messages) : 0.0, "us");
  report.add("session.generate_us", replays.session_generate_us, "us");
  report.add("session.mutate_us", replays.session_mutate_us, "us");
  report.add("session.new_states", count(Counter::kSessionNewStates),
             "count");

  report.add("parallel.seeds_published",
             static_cast<double>(traced.seeds_published), "count");
  report.add("parallel.seeds_imported",
             static_cast<double>(traced.seeds_imported), "count");
  report.add("parallel.puzzles_imported",
             static_cast<double>(traced.puzzles_imported), "count");

  report.add("supervise.checkpoints_saved",
             static_cast<double>(traced.checkpoints_saved), "count");
  report.add("supervise.checkpoint_mb", traced.checkpoint_mb, "MiB");
  report.add("supervise.checkpoint_save_ms", traced.checkpoint_save_ms, "ms");
  report.add("supervise.checkpoint_load_ms", traced.checkpoint_load_ms, "ms");
  report.add("supervise.checkpoint_share_pct", checkpoint_share, "%");

  report.add("trace.overhead_pct",
             100.0 * ratio(untraced_rate - traced.execs_per_sec(),
                           untraced_rate),
             "%");
  // The supervisor's run() is the only span the bench can place around a
  // supervised campaign, and it encloses the whole timed window.
  report.add("trace.step_coverage_pct",
             supervised ? 100.0
                        : 100.0 * ratio(step_total_us(traced),
                                        traced.wall_s * 1e6),
             "%");
}

int run(const Options& options) {
  const Workload& workload = *options.workload;
  std::filesystem::create_directories(options.work_dir);
  if (out_of_process(workload)) bind_to_current_core();
  std::vector<Round> rounds;
  std::optional<Tracer> tracer;

  if (options.trace) {
    // Untraced rounds on either side of the traced one: the first process
    // round runs cold, so the overhead compares against their mean.
    rounds.push_back(run_round(workload, options, options.seed, nullptr));
    tracer.emplace(Clock::now());
    rounds.push_back(run_round(workload, options, options.seed, &*tracer));
    rounds.push_back(run_round(workload, options, options.seed, nullptr));
  } else {
    const Clock::time_point start = Clock::now();
    for (std::uint64_t r = 0; r < options.rounds(); ++r) {
      rounds.push_back(run_round(workload, options,
                                 round_seed(options.seed, r), nullptr));
      if (!rounds.back().problem.empty() || rounds.back().failed() != 0) {
        break;
      }
      // Guard for a host far slower than the one the budgets were sized
      // on: the run still ends in bounded time, with fewer samples.
      if (seconds_between(start, Clock::now()) > 1.5 * options.seconds) {
        break;
      }
    }
  }
  const double peak_rss = peak_rss_mib();
  Tracer* const spans = tracer ? &*tracer : nullptr;
  std::optional<Round> twin;
  if (is_single_fuzzer(workload)) {
    twin = run_round(workload, options, options.seed, spans, /*twin=*/true);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Round& round : rounds) {
    attempted += round.attempted;
    failed += round.failed();
  }
  Report report;
  if (tracer) {
    const Round& traced = rounds[1];
    const Replays replays = replay_layers(workload, traced, *tracer);
    const double untraced_rate =
        (rounds[0].execs_per_sec() + rounds[2].execs_per_sec()) / 2;
    report_layers(workload, traced, untraced_rate,
                  out_of_process(workload) ? &*twin : nullptr, replays,
                  attempted, failed, report);
    const std::string path =
        options.work_dir + "/trace-" + workload.name + ".json";
    if (!tracer->write(path)) {
      std::fprintf(stderr, "icsfuzz-e2e: cannot write %s\n", path.c_str());
      return 1;
    }
  } else {
    report_end_to_end(rounds, peak_rss, report);
  }

  std::string problem = check_rounds(workload, rounds, twin);
  if (problem.empty() && !report.all_finite()) {
    problem = "a metric is not a finite number";
  }
  if (!problem.empty()) {
    std::fprintf(stderr, "icsfuzz-e2e: %s: %s\n", workload.name,
                 problem.c_str());
  }
  report.print(problem.empty(), attempted, failed);
  return problem.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parse_options(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> [--seed N] [--seconds N] "
                 "[--trace 0|1] [--smoke] [--work-dir DIR]\n  workloads:",
                 argv[0]);
    for (const Workload& workload : kWorkloads) {
      std::fprintf(stderr, " %s", workload.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  return run(*options);
}
