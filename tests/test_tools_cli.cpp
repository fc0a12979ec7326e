// CLI argument hygiene for the shipped tools.
//
// Regression suite for the atoi/strtoull bug class: numeric options used
// to be parsed with C conversions that silently turn garbage into 0
// ("--interval-ms banana" polled at a default rate instead of failing),
// so every numeric flag across icsfuzz-stats / icsfuzz-distill /
// icsfuzz-triage / icsfuzz-inject-check now goes through the checked
// parse_u64/parse_int helpers and must reject non-numeric, overflowing,
// and out-of-domain values with a diagnostic on stderr and a usage exit.
//
// It also drives the crash CLIs end to end over a saved session's crash
// store: icsfuzz-distill --replay-crashes, icsfuzz-triage ingest and list.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzzer/fuzzer.hpp"
#include "fuzzer/persistence.hpp"
#include "pits/pits.hpp"
#include "protocols/lib60870/cs101_server.hpp"
#include "supervise/triage_store.hpp"
#include "util/json.hpp"

namespace {

using namespace icsfuzz;
namespace fs = std::filesystem;

/// Runs `cmd` through the shell with stdout discarded and stderr captured;
/// returns the exit status and fills `err` with the stderr text.
int run_tool(const std::string& cmd, std::string& err) {
  const std::string err_path =
      ::testing::TempDir() + "/tools_cli_stderr.txt";
  const std::string full =
      cmd + " >/dev/null 2>" + err_path;
  const int status = std::system(full.c_str());
  err.clear();
  std::ifstream in(err_path);
  std::string line;
  while (std::getline(in, line)) {
    err += line;
    err += '\n';
  }
  std::remove(err_path.c_str());
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

/// Runs `cmd` through the shell with stderr discarded; returns the exit
/// status and fills `out` with the stdout text.
int run_tool_stdout(const std::string& cmd, std::string& out) {
  out.clear();
  FILE* pipe = ::popen((cmd + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    out.append(buffer, got);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

/// The string values of `key` in the objects of the array `doc[list]`.
std::vector<std::string> fields_of(const JsonValue& doc, const char* list,
                                   const char* key) {
  std::vector<std::string> values;
  if (const JsonValue* items = doc.find(list);
      items != nullptr && items->is_array()) {
    for (const JsonValue& item : items->items) {
      const JsonValue* value = item.find(key);
      values.push_back(value != nullptr ? value->string : "");
    }
  }
  return values;
}

/// The integer `doc[key]`, or UINT64_MAX when it is absent.
std::uint64_t u64_of(const JsonValue& doc, const char* key) {
  const JsonValue* value = doc.find(key);
  return value != nullptr && value->is_u64 ? value->u64 : UINT64_MAX;
}

struct RejectCase {
  const char* label;
  std::string cmd;
};

void expect_usage_rejection(const RejectCase& c) {
  SCOPED_TRACE(c.label);
  std::string err;
  const int code = run_tool(c.cmd, err);
  EXPECT_EQ(code, 2) << "bad numeric input must exit through usage";
  EXPECT_FALSE(err.empty()) << "rejection must explain itself on stderr";
}

TEST(ToolsCli, StatsRejectsBadNumerics) {
  const std::string tool = ICSFUZZ_TOOL_STATS;
  const RejectCase cases[] = {
      {"non-numeric interval", tool + " /tmp/nodir --interval-ms banana"},
      {"negative interval", tool + " /tmp/nodir --interval-ms -5"},
      {"trailing garbage", tool + " /tmp/nodir --interval-ms 12abc"},
      {"missing operand", tool + " /tmp/nodir --interval-ms"},
      {"non-numeric events", tool + " /tmp/nodir --events x"},
      {"overflow events",
       tool + " /tmp/nodir --events 99999999999999999999999"},
  };
  for (const RejectCase& c : cases) expect_usage_rejection(c);
}

TEST(ToolsCli, DistillRejectsBadNumerics) {
  const std::string tool = ICSFUZZ_TOOL_DISTILL;
  const RejectCase cases[] = {
      {"non-numeric workers",
       tool + " --project libmodbus --workers banana"},
      {"negative workers", tool + " --project libmodbus --workers -2"},
      {"overflow persistent budget",
       tool + " --project libmodbus --persistent 99999999999 --session x"},
      {"zero persistent budget",
       tool + " --project libmodbus --persistent 0 --session x"},
  };
  for (const RejectCase& c : cases) expect_usage_rejection(c);
}

TEST(ToolsCli, TriageRejectsBadNumerics) {
  const std::string tool = ICSFUZZ_TOOL_TRIAGE;
  const std::string store = ::testing::TempDir() + "/tools_cli_store";
  const RejectCase cases[] = {
      {"non-numeric limit", tool + " list " + store + " --limit banana"},
      {"zero limit", tool + " list " + store + " --limit 0"},
      {"trailing garbage", tool + " list " + store + " --limit 3x"},
  };
  for (const RejectCase& c : cases) expect_usage_rejection(c);
}

TEST(ToolsCli, TriageHonorsValidLimit) {
  const std::string tool = ICSFUZZ_TOOL_TRIAGE;
  const std::string store = ::testing::TempDir() + "/tools_cli_store_ok";
  std::string err;
  const int code = run_tool(tool + " list " + store + " --limit 5", err);
  EXPECT_EQ(code, 0) << err;
}

TEST(ToolsCli, CrashStoreOfASavedSessionDrivesDistillAndTriage) {
  const fs::path root = fs::path(::testing::TempDir()) /
                        ("tools_cli_crashes-" + std::to_string(::getpid()));
  fs::remove_all(root);
  const std::string session = (root / "session").string();
  {
    // The lib60870 CS101 recipe that reliably yields Table I's SEGVs.
    const model::DataModelSet models = pits::cs101_pit();
    proto::Cs101Server server;
    fuzz::FuzzerConfig config;
    config.strategy = fuzz::Strategy::PeachStar;
    config.rng_seed = 5;
    fuzz::Fuzzer fuzzer(server, models, config);
    fuzzer.run(25000);
    ASSERT_GT(fuzzer.crashes().unique_count(), 0u);
    ASSERT_FALSE(fuzz::save_session(fuzzer, session).has_value());
  }
  supervise::TriageStore saved(session + "/crashes");
  ASSERT_TRUE(saved.open());
  std::vector<std::string> buckets;
  for (const supervise::TriageRecord& record : saved.records()) {
    buckets.push_back(record.bucket);
  }
  ASSERT_FALSE(buckets.empty());

  const std::string distill = ICSFUZZ_TOOL_DISTILL;
  const std::string triage = ICSFUZZ_TOOL_TRIAGE;
  std::string out;
  ASSERT_EQ(run_tool_stdout(distill + " --project lib60870 --session " +
                                session + " --replay-crashes",
                            out),
            0)
      << out;
  std::optional<JsonValue> doc = json_parse(out);
  ASSERT_TRUE(doc.has_value()) << out;
  EXPECT_EQ(u64_of(*doc, "total"), buckets.size());
  EXPECT_EQ(u64_of(*doc, "reproduced"), buckets.size());
  EXPECT_EQ(fields_of(*doc, "crashes", "id"), buckets);

  const std::string store = (root / "store").string();
  ASSERT_EQ(run_tool_stdout(triage + " ingest " + store + " --session " +
                                session + " --project lib60870",
                            out),
            0)
      << out;
  doc = json_parse(out);
  ASSERT_TRUE(doc.has_value()) << out;
  EXPECT_EQ(u64_of(*doc, "loaded"), buckets.size());
  EXPECT_EQ(u64_of(*doc, "new_buckets"), buckets.size());
  EXPECT_EQ(fields_of(*doc, "ingested", "bucket"), buckets);

  ASSERT_EQ(run_tool_stdout(triage + " list " + store, out), 0) << out;
  doc = json_parse(out);
  ASSERT_TRUE(doc.has_value()) << out;
  EXPECT_EQ(fields_of(*doc, "buckets", "bucket"), buckets);

  // No crash store to read, or none to write: a nonzero exit, not an
  // empty success.
  const std::string absent = (root / "absent").string();
  std::string err;
  EXPECT_NE(run_tool(triage + " ingest " + store + " --session " + absent +
                         " --project lib60870",
                     err),
            0);
  EXPECT_NE(run_tool(distill + " --project lib60870 --session " + absent +
                         " --replay-crashes",
                     err),
            0);
  { std::ofstream(root / "file") << "not a directory"; }
  EXPECT_EQ(run_tool(triage + " ingest " + (root / "file" / "store").string() +
                         " --session " + session + " --no-verify",
                     err),
            1);
  EXPECT_FALSE(err.empty());
  fs::remove_all(root);
}

TEST(ToolsCli, InjectCheckRejectsBadNumerics) {
  const std::string tool = ICSFUZZ_TOOL_INJECT_CHECK;
  const RejectCase cases[] = {
      {"non-numeric timeout",
       tool + " --timeout-ms soon -- /bin/true"},
      {"non-numeric persistent budget",
       tool + " --persistent many -- /bin/true"},
      {"missing target", tool + " --timeout-ms 1000"},
  };
  for (const RejectCase& c : cases) expect_usage_rejection(c);
}

}  // namespace
