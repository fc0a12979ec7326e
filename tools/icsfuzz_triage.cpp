// icsfuzz-triage — CLI front end of the on-disk crash-triage store.
//
//   # fold a saved session's crash store (DIR/crashes) into a store,
//   # re-verifying every reproducer (--no-verify skips, --minimize shrinks)
//   icsfuzz-triage ingest STORE --session DIR --project libmodbus
//
//   # inspect the store
//   icsfuzz-triage list STORE
//   icsfuzz-triage show STORE BUCKET
//
//   # replay / shrink one bucket's reproducer against a live target
//   icsfuzz-triage repro STORE BUCKET --project libmodbus
//   icsfuzz-triage minimize STORE BUCKET --project libmodbus
//
// Every mode prints one JSON document to stdout; repro/ingest exit nonzero
// when a reproducer fails to reproduce or a record does not reach the
// disk, and ingest when the session has no crash store, so the tool slots
// into CI gates.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzzer/campaign.hpp"
#include "protocols/target_registry.hpp"
#include "supervise/triage_store.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace icsfuzz;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> <store-dir> [args] [options]\n"
      "  commands:\n"
      "    ingest STORE --session DIR --project P  fold the session's\n"
      "        crash store (DIR/crashes) into STORE (re-verifies each\n"
      "        reproducer; --no-verify skips, --minimize tmin-shrinks\n"
      "        verified reproducers)\n"
      "    list STORE                 all buckets, first-seen order\n"
      "    show STORE BUCKET          one bucket's full record\n"
      "    repro STORE BUCKET --project P     replay the reproducer\n"
      "    minimize STORE BUCKET --project P  replay + tmin-shrink\n"
      "  options:\n"
      "    --limit N          list/ingest: stop after N buckets/records\n"
      "  projects: libmodbus IEC104 libiec61850 lib60870 libiec_iccp_mod"
      " opendnp3\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string command = argv[1];
  const std::string store_dir = argv[2];

  std::string bucket;
  std::string session;
  std::string project;
  std::size_t limit = SIZE_MAX;
  bool minimize = false;
  bool verify = true;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--session") {
      if (const char* v = next()) session = v;
    } else if (arg == "--project") {
      if (const char* v = next()) project = v;
    } else if (arg == "--limit") {
      const char* v = next();
      std::string error;
      const auto parsed =
          v ? parse_u64(v, "--limit", &error) : std::nullopt;
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "%s\n",
                     error.empty() ? "--limit: expected a positive count"
                                   : error.c_str());
        return usage(argv[0]);
      }
      limit = static_cast<std::size_t>(*parsed);
    } else if (arg == "--minimize") {
      minimize = true;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg[0] != '-' && bucket.empty()) {
      bucket = arg;
    } else {
      return usage(argv[0]);
    }
  }

  supervise::TriageStore store(store_dir);
  if (!store.open()) {
    std::fprintf(stderr, "cannot open store: %s\n", store.error().c_str());
    return 1;
  }

  if (command == "list") {
    std::printf("{\n  \"tool\": \"icsfuzz-triage\", \"mode\": \"list\", "
                "\"store\": \"%s\",\n  \"buckets\": [\n",
                json_escape(store_dir).c_str());
    const std::vector<supervise::TriageRecord>& records = store.records();
    const std::size_t shown = records.size() < limit ? records.size() : limit;
    for (std::size_t i = 0; i < shown; ++i) {
      std::printf("    %s%s\n", supervise::render_record(records[i]).c_str(),
                  i + 1 < shown ? "," : "");
    }
    std::printf("  ],\n  \"shown\": %zu, \"total\": %zu\n}\n", shown,
                records.size());
    return 0;
  }

  if (command == "show") {
    if (bucket.empty()) return usage(argv[0]);
    const supervise::TriageRecord* record = store.find(bucket);
    if (record == nullptr) {
      std::fprintf(stderr, "no bucket '%s'\n", bucket.c_str());
      return 1;
    }
    std::printf("%s\n", supervise::render_record(*record).c_str());
    return 0;
  }

  if (command == "ingest") {
    if (session.empty()) return usage(argv[0]);
    fuzz::TargetFactory factory;
    if (verify || minimize) {
      factory = proto::target_factory(project);
      if (!factory) {
        std::fprintf(stderr, "unknown --project '%s'\n", project.c_str());
        return usage(argv[0]);
      }
    }
    const std::string crashes_dir = session + "/crashes";
    supervise::TriageStore source(crashes_dir);
    std::error_code error;
    if (!std::filesystem::is_directory(crashes_dir, error) || !source.open()) {
      std::fprintf(stderr, "no crash store under %s\n", session.c_str());
      return 1;
    }
    std::size_t fresh = 0;
    std::size_t failed = 0;
    std::size_t unsaved = 0;
    std::printf("{\n  \"tool\": \"icsfuzz-triage\", \"mode\": \"ingest\", "
                "\"store\": \"%s\",\n  \"ingested\": [\n",
                json_escape(store_dir).c_str());
    const std::vector<supervise::TriageRecord>& records = source.records();
    const std::size_t taken = records.size() < limit ? records.size() : limit;
    for (std::size_t i = 0; i < taken; ++i) {
      const supervise::TriageRecord& record = records[i];
      fuzz::CrashRecord crash;
      crash.kind = record.kind;
      crash.site = record.site;
      crash.trace_hash = record.trace_hash;
      crash.detail = record.detail;
      crash.hits = record.hits;
      crash.first_execution = record.first_execution;
      const std::optional<Bytes> reproducer =
          source.load_reproducer(record.bucket);
      supervise::TriageStore::IngestOutcome outcome;
      outcome.bucket = record.bucket;
      if (reproducer) {
        crash.reproducer = *reproducer;
        const auto target = factory ? factory() : nullptr;
        outcome = store.ingest(crash, target.get(), minimize);
      }
      fresh += outcome.is_new;
      failed += outcome.verify_failed;
      unsaved += !outcome.persisted;
      std::printf("    {\"bucket\": \"%s\", \"new\": %s, \"reproduced\": "
                  "%s, \"minimized\": %s, \"persisted\": %s}%s\n",
                  outcome.bucket.c_str(), outcome.is_new ? "true" : "false",
                  outcome.reproduced ? "true" : "false",
                  outcome.minimized ? "true" : "false",
                  outcome.persisted ? "true" : "false",
                  i + 1 < taken ? "," : "");
    }
    std::printf("  ],\n  \"loaded\": %zu, \"new_buckets\": %zu, "
                "\"verify_failed\": %zu, \"not_persisted\": %zu\n}\n",
                records.size(), fresh, failed, unsaved);
    if (unsaved != 0) {
      std::fprintf(stderr, "%s\n",
                   store.error().empty() ? "a crash has no reproducer"
                                         : store.error().c_str());
    }
    return failed == 0 && unsaved == 0 ? 0 : 1;
  }

  if (command == "repro" || command == "minimize") {
    if (bucket.empty()) return usage(argv[0]);
    const fuzz::TargetFactory factory = proto::target_factory(project);
    if (!factory) {
      std::fprintf(stderr, "unknown --project '%s'\n", project.c_str());
      return usage(argv[0]);
    }
    const auto target = factory();
    const auto outcome = store.reverify(bucket, *target,
                                        command == "minimize" || minimize);
    if (!outcome) {
      std::fprintf(stderr, "no bucket or reproducer for '%s'\n",
                   bucket.c_str());
      return 1;
    }
    std::printf("{\n  \"tool\": \"icsfuzz-triage\", \"mode\": \"%s\",\n"
                "  \"record\": %s,\n",
                command.c_str(),
                supervise::render_record(*store.find(bucket)).c_str());
    std::printf("  \"reproduced\": %s, \"minimized\": %s, \"persisted\": "
                "%s\n}\n",
                outcome->reproduced ? "true" : "false",
                outcome->minimized ? "true" : "false",
                outcome->persisted ? "true" : "false");
    if (!outcome->persisted) {
      std::fprintf(stderr, "%s\n", store.error().c_str());
    }
    return outcome->reproduced && outcome->persisted ? 0 : 1;
  }

  return usage(argv[0]);
}
