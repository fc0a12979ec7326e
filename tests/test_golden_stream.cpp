// Golden packet streams: fixed-seed Peach and Peach* campaigns on all six
// built-in pits, plus one IEC 104 session-mode campaign, hash every packet
// the engine hands to the target and compare against constants.
//
// The constants pin generation bit for bit — the RNG draws, the leaf
// factories, the File Fixup pass and (for Peach*) every coverage decision
// that steers cracking and donor selection. Any refactor of model/,
// mutation/ or fuzzer/ that claims "same bytes" must leave them unchanged.
// They hold for any checkout path: the build maps the source root out of
// __FILE__, which the coverage block ids hash (see CoverageBlockIds below).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "fuzzer/fuzzer.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "session/framing.hpp"

namespace icsfuzz {
namespace {

/// Forwards to a real server and folds every inbound packet into a running
/// FNV-1a hash (length-delimited, so packet boundaries count).
class HashingTarget final : public ProtocolTarget {
 public:
  explicit HashingTarget(std::unique_ptr<ProtocolTarget> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void reset() override { inner_->reset(); }
  Bytes process(ByteSpan packet) override {
    fold(packet);
    return inner_->process(packet);
  }
  void process_into(ByteSpan packet, Bytes& response) override {
    fold(packet);
    inner_->process_into(packet, response);
  }

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }

 private:
  void fold(ByteSpan packet) {
    ++packets_;
    mix(packet.size());
    for (std::uint8_t byte : packet) mix(byte);
  }
  void mix(std::uint64_t value) {
    hash_ ^= value;
    hash_ *= 1099511628211ULL;
  }

  std::unique_ptr<ProtocolTarget> inner_;
  std::uint64_t hash_ = 1469598103934665603ULL;
  std::uint64_t packets_ = 0;
};

struct StreamDigest {
  std::uint64_t hash = 0;
  std::uint64_t packets = 0;
};

StreamDigest run_campaign(const std::string& project, fuzz::FuzzerConfig config,
                          std::uint64_t steps) {
  config.telemetry = telem::Sink();
  HashingTarget target(proto::target_factory(project)());
  const model::DataModelSet models = pits::pit_for_project(project);
  fuzz::Fuzzer fuzzer(target, models, config);
  fuzzer.run(steps);
  return {target.hash(), target.packets()};
}

constexpr std::uint64_t kSteps = 5000;
constexpr std::uint64_t kSeed = 0x601D;

struct Golden {
  const char* project;
  fuzz::Strategy strategy;
  std::uint64_t hash;
  std::uint64_t packets;
};

// Recorded with the value-returning tree builders and the name-lookup File
// Fixup that model::TreeBuilder replaced (same RNG draws, same bytes),
// built with the source-root prefix map.
constexpr Golden kGolden[] = {
    {"libmodbus", fuzz::Strategy::Peach, 0x052FB56D13041AD2ULL, kSteps},
    {"libmodbus", fuzz::Strategy::PeachStar, 0xB63DA9390D9031F9ULL, kSteps},
    {"IEC104", fuzz::Strategy::Peach, 0xF75C8FBF30E5398CULL, kSteps},
    {"IEC104", fuzz::Strategy::PeachStar, 0x70AD0910C5A2AD71ULL, kSteps},
    {"libiec61850", fuzz::Strategy::Peach, 0xF008026479769812ULL, kSteps},
    {"libiec61850", fuzz::Strategy::PeachStar, 0x57030D5A0EB24E43ULL, kSteps},
    {"lib60870", fuzz::Strategy::Peach, 0xF127DF4DA26DDF2BULL, kSteps},
    {"lib60870", fuzz::Strategy::PeachStar, 0x6ED439A6E507139DULL, kSteps},
    {"libiec_iccp_mod", fuzz::Strategy::Peach, 0x64944504CED28EEFULL, kSteps},
    {"libiec_iccp_mod", fuzz::Strategy::PeachStar, 0xDFCD3F7373567DFFULL, kSteps},
    {"opendnp3", fuzz::Strategy::Peach, 0x59122916DF15C50CULL, kSteps},
    {"opendnp3", fuzz::Strategy::PeachStar, 0x0564BFF33E9D3B1FULL, kSteps},
};

constexpr Golden kSessionGolden = {"IEC104", fuzz::Strategy::PeachStar,
                                   0x8B17732F5958ACA2ULL, 13412};

std::string hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "0x%016llX",
                static_cast<unsigned long long>(value));
  return text;
}

TEST(GoldenStream, PeachAndPeachStarOnEveryPit) {
  for (const Golden& golden : kGolden) {
    fuzz::FuzzerConfig config;
    config.strategy = golden.strategy;
    config.rng_seed = kSeed;
    const StreamDigest digest = run_campaign(golden.project, config, kSteps);
    EXPECT_EQ(digest.packets, golden.packets)
        << golden.project << " " << fuzz::to_string(golden.strategy);
    EXPECT_EQ(hex(digest.hash), hex(golden.hash))
        << golden.project << " " << fuzz::to_string(golden.strategy);
  }
}

TEST(GoldenStream, Iec104SessionStreams) {
  const std::string project = kSessionGolden.project;
  fuzz::FuzzerConfig config;
  config.strategy = kSessionGolden.strategy;
  config.rng_seed = kSeed;
  config.session.enabled = true;
  config.session.framing = session::framing_for_project(project);
  config.session.project = project;
  config.executor.backend.session.framing = config.session.framing;
  const StreamDigest digest = run_campaign(project, config, kSteps / 2);
  EXPECT_EQ(digest.packets, kSessionGolden.packets);
  EXPECT_EQ(hex(digest.hash), hex(kSessionGolden.hash));
}

// The block id of ICSFUZZ_COV_BLOCK hashes __FILE__. The build maps the
// source root out of it (-fmacro-prefix-map in CMakeLists.txt), so ids —
// and with them every coverage decision above — do not depend on where the
// repository is checked out. This TU is compiled with the library's flags.
TEST(CoverageBlockIds, FileNamesAreRelativeToTheSourceRoot) {
  EXPECT_EQ(std::string_view(__FILE__), "tests/test_golden_stream.cpp");
}

}  // namespace
}  // namespace icsfuzz
