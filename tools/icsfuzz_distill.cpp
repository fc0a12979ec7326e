// icsfuzz-distill — corpus distillation and deterministic replay CLI.
//
//   # minimize a saved session's seed corpus and write it back out
//   icsfuzz-distill --project libmodbus --session DIR --out DIR [--tmin]
//
//   # re-verify a distilled corpus against its MANIFEST.txt
//   icsfuzz-distill --project libmodbus --corpus DIR --verify
//
//   # replay a saved session's crash reproducers (triage)
//   icsfuzz-distill --project lib60870 --session DIR --replay-crashes
//
// Every mode prints one JSON document to stdout and exits nonzero on
// verification failure, so the tool slots directly into CI gates.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "distill/distill.hpp"
#include "distill/replay.hpp"
#include "fuzzer/persistence.hpp"
#include "protocols/target_registry.hpp"
#include "supervise/triage_store.hpp"
#include "telemetry/clock.hpp"
#include "util/strings.hpp"

namespace {

using namespace icsfuzz;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --project <name> (--session DIR | --corpus DIR) [options]\n"
      "  projects: libmodbus IEC104 libiec61850 lib60870 libiec_iccp_mod"
      " opendnp3\n"
      "  modes (default: distill --session seeds into --out):\n"
      "    --verify          replay --corpus and check its MANIFEST.txt\n"
      "    --replay-crashes  replay the reproducers of --session's crash\n"
      "                      store (DIR/crashes)\n"
      "  options:\n"
      "    --out DIR         write the distilled corpus here\n"
      "    --workers N       replay shards (default 1)\n"
      "    --tmin            trim each kept seed (trace-hash invariant)\n"
      "    --no-preserve-paths  cover edges only, not distinct paths\n"
      "    --target-cmd CMD  replay out of process through this fork-server\n"
      "                      target (e.g. 'icsfuzz-shim-target --project\n"
      "                      libmodbus'; split on spaces). Coverage comes\n"
      "                      from the shm map and is bit-identical to the\n"
      "                      in-process replay of the same stacks.\n"
      "    --persistent [K]  with --target-cmd: persistent-mode execution\n"
      "                      (K executions per child; default 1024). A\n"
      "                      target without the persistent capability stays\n"
      "                      on fork-per-exec.\n",
      argv0);
  return 2;
}

void print_report(const char* key, const distill::ReplayReport& report,
                  const char* trailing) {
  std::printf(
      "  \"%s\": {\"seeds\": %zu, \"edges\": %zu, \"paths\": %zu, "
      "\"crashes\": %zu, \"map_fingerprint\": \"%016llx\", "
      "\"path_fingerprint\": \"%016llx\"}%s\n",
      key, report.seeds, report.edges, report.paths, report.crashes,
      static_cast<unsigned long long>(report.map_fingerprint),
      static_cast<unsigned long long>(report.path_fingerprint), trailing);
}

}  // namespace

int main(int argc, char** argv) {
  std::string project;
  std::string session;
  std::string corpus_dir;
  std::string out;
  std::size_t workers = 1;
  bool verify = false;
  bool replay_crashes = false;
  bool trim = false;
  bool preserve_paths = true;
  fuzz::ExecutorConfig executor_config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--project") {
      if (const char* v = next()) project = v;
    } else if (arg == "--session") {
      if (const char* v = next()) session = v;
    } else if (arg == "--corpus") {
      if (const char* v = next()) corpus_dir = v;
    } else if (arg == "--out") {
      if (const char* v = next()) out = v;
    } else if (arg == "--workers") {
      const char* v = next();
      std::string error;
      const auto parsed =
          v ? parse_u64(v, "--workers", &error) : std::nullopt;
      if (!parsed) {
        std::fprintf(stderr, "%s\n",
                     error.empty() ? "--workers: expected a count"
                                   : error.c_str());
        return usage(argv[0]);
      }
      workers = static_cast<std::size_t>(*parsed);
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--replay-crashes") {
      replay_crashes = true;
    } else if (arg == "--tmin") {
      trim = true;
    } else if (arg == "--no-preserve-paths") {
      preserve_paths = false;
    } else if (arg == "--target-cmd") {
      if (const char* v = next()) {
        // Split on spaces (the shim-style targets this drives take plain
        // flag arguments), dropping empty tokens from repeated spaces.
        for (std::string& token : split(v, ' ')) {
          if (!token.empty()) {
            executor_config.backend.target_cmd.push_back(std::move(token));
          }
        }
        if (executor_config.backend.kind == fuzz::BackendKind::kInProcess) {
          executor_config.backend.kind = fuzz::BackendKind::kForkPerExec;
        }
      }
    } else if (arg == "--persistent") {
      executor_config.backend.kind = fuzz::BackendKind::kPersistent;
      // Optional budget operand (a bare "--persistent" keeps the default).
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        std::string error;
        const auto parsed =
            parse_u64(argv[++i], "--persistent budget", &error);
        if (!parsed || *parsed == 0 || *parsed > UINT32_MAX) {
          std::fprintf(stderr, "%s\n",
                       error.empty() ? "--persistent budget: expected a "
                                       "positive 32-bit count"
                                     : error.c_str());
          return usage(argv[0]);
        }
        executor_config.backend.persistent_budget =
            static_cast<std::uint32_t>(*parsed);
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (workers == 0) workers = 1;

  const fuzz::TargetFactory factory = proto::target_factory(project);
  if (!factory) {
    std::fprintf(stderr, "unknown --project '%s'\n", project.c_str());
    return usage(argv[0]);
  }

  if (replay_crashes) {
    if (session.empty()) return usage(argv[0]);
    const std::string crashes_dir = session + "/crashes";
    supervise::TriageStore store(crashes_dir);
    std::error_code error;
    if (!std::filesystem::is_directory(crashes_dir, error) || !store.open()) {
      std::fprintf(stderr, "no crash store under %s\n", session.c_str());
      return 1;
    }
    const std::vector<supervise::TriageRecord>& crashes = store.records();
    std::size_t reproduced = 0;
    std::printf("{\n  \"tool\": \"icsfuzz-distill\", \"mode\": "
                "\"replay-crashes\", \"project\": \"%s\",\n  \"crashes\": [\n",
                project.c_str());
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      const std::optional<Bytes> reproducer =
          store.load_reproducer(crashes[i].bucket);
      const auto target = factory();
      const bool replayed =
          reproducer &&
          distill::replay_crash(*target, *reproducer, executor_config)
              .reproduced;
      reproduced += replayed;
      std::printf("    {\"id\": \"%s\", \"reproduced\": %s}%s\n",
                  crashes[i].bucket.c_str(), replayed ? "true" : "false",
                  i + 1 < crashes.size() ? "," : "");
    }
    std::printf("  ],\n  \"total\": %zu, \"reproduced\": %zu\n}\n",
                crashes.size(), reproduced);
    return reproduced == crashes.size() ? 0 : 1;
  }

  if (verify) {
    if (corpus_dir.empty()) return usage(argv[0]);
    const fuzz::LoadedCorpus loaded = fuzz::load_distilled_corpus(corpus_dir);
    const distill::ReplayReport replayed = distill::replay_corpus_sharded(
        factory, loaded.seeds, workers, executor_config);
    // The manifest's crash and seed counts are part of the replay
    // contract, not just the coverage fingerprints.
    const bool matches = loaded.has_manifest &&
                         replayed.same_coverage(loaded.expected) &&
                         replayed.crashes == loaded.expected.crashes &&
                         replayed.seeds == loaded.expected.seeds;
    std::printf("{\n  \"tool\": \"icsfuzz-distill\", \"mode\": \"verify\", "
                "\"project\": \"%s\",\n", project.c_str());
    print_report("expected", loaded.expected, ",");
    print_report("replayed", replayed, ",");
    std::printf("  \"has_manifest\": %s, \"identical\": %s\n}\n",
                loaded.has_manifest ? "true" : "false",
                matches ? "true" : "false");
    return matches ? 0 : 1;
  }

  // Default mode: distill a session's seed corpus. The corpus is replayed
  // once for tracing; the `before` report derives from those traces.
  if (session.empty() && corpus_dir.empty()) return usage(argv[0]);
  std::vector<Bytes> seeds = session.empty()
                                 ? fuzz::load_distilled_corpus(corpus_dir).seeds
                                 : fuzz::load_seeds(session);
  // Phase timing off the telemetry clock: crack (trace collection) /
  // distill (cmin + optional tmin) / replay (final verification pass).
  telem::Clock clock;
  const std::uint64_t crack_start = clock.now_ns();
  const std::vector<distill::SeedTrace> traces =
      distill::collect_traces_sharded(factory, seeds, workers,
                                      executor_config);
  const distill::ReplayReport before = distill::report_from_traces(traces);
  const std::uint64_t distill_start = clock.now_ns();

  distill::CminConfig config;
  config.workers = workers;
  config.preserve_paths = preserve_paths;
  config.executor = executor_config;
  distill::CminResult result = distill::cmin_from_traces(traces, seeds, config);

  std::size_t trimmed_bytes = 0;
  if (trim) {
    const auto target = factory();
    distill::TminConfig tmin_config;
    tmin_config.executor = executor_config;
    for (Bytes& seed : result.seeds) {
      distill::TminResult trimmed = distill::tmin(*target, seed, tmin_config);
      trimmed_bytes += trimmed.bytes_before - trimmed.seed.size();
      seed = std::move(trimmed.seed);
    }
  }
  const std::uint64_t replay_start = clock.now_ns();

  const distill::ReplayReport after = distill::replay_corpus_sharded(
      factory, result.seeds, workers, executor_config);
  const std::uint64_t replay_end = clock.now_ns();
  const bool identical = preserve_paths ? before.same_coverage(after)
                                        : before.edges == after.edges &&
                                              before.map_fingerprint ==
                                                  after.map_fingerprint;

  std::printf("{\n  \"tool\": \"icsfuzz-distill\", \"mode\": \"distill\", "
              "\"project\": \"%s\",\n", project.c_str());
  std::printf("  \"seeds_before\": %zu, \"seeds_after\": %zu, "
              "\"reduction_pct\": %.2f, \"trimmed_bytes\": %zu,\n",
              result.stats.seeds_before, result.stats.seeds_after,
              result.stats.reduction_ratio() * 100.0, trimmed_bytes);
  print_report("before", before, ",");
  print_report("after", after, ",");
  std::printf("  \"phase_ms\": {\"crack\": %.1f, \"distill\": %.1f, "
              "\"replay\": %.1f},\n",
              static_cast<double>(distill_start - crack_start) / 1e6,
              static_cast<double>(replay_start - distill_start) / 1e6,
              static_cast<double>(replay_end - replay_start) / 1e6);
  std::printf("  \"coverage_identical\": %s\n}\n",
              identical ? "true" : "false");

  if (!out.empty()) {
    if (auto error = fuzz::save_distilled_corpus(out, result.seeds, after)) {
      std::fprintf(stderr, "save failed: %s\n", error->c_str());
      return 1;
    }
  }
  return identical ? 0 : 1;
}
