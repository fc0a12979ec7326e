// Tests for the built-in pits: structural validity, the default instance of
// every model must be accepted (deep-path-wise) by its server, and the
// cross-model tag sharing the donor mechanism depends on.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "model/instantiation.hpp"
#include "model/pit_parser.hpp"
#include "pits/pits.hpp"
#include "protocols/dnp3/dnp3_server.hpp"
#include "protocols/iccp/iccp_server.hpp"
#include "protocols/iec104/iec104_server.hpp"
#include "protocols/iec61850/mms_server.hpp"
#include "protocols/lib60870/cs101_server.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "test_support.hpp"

namespace icsfuzz::pits {
namespace {

using test::run_armed;

struct PitCase {
  const char* project;
  model::DataModelSet (*pit)();
  std::function<std::unique_ptr<ProtocolTarget>()> target;
};

class PitSuite : public ::testing::TestWithParam<PitCase> {};

TEST_P(PitSuite, ValidatesStructurally) {
  const model::DataModelSet set = GetParam().pit();
  EXPECT_GE(set.size(), 4u);
  const auto error = set.validate();
  EXPECT_FALSE(error.has_value()) << *error;
}

TEST_P(PitSuite, DefaultInstancesNeverFaultTheTarget) {
  const model::DataModelSet set = GetParam().pit();
  auto target = GetParam().target();
  for (const model::DataModel& model : set.models()) {
    const Bytes packet = model::default_instance(model).serialize();
    const auto run = run_armed(*target, packet);
    EXPECT_FALSE(run.crashed()) << model.name();
  }
}

TEST_P(PitSuite, MostDefaultInstancesElicitResponses) {
  // Pits are written so their defaults represent *valid* requests; at
  // least half of the models must produce a non-empty response (raw
  // catch-all models may legitimately be dropped).
  const model::DataModelSet set = GetParam().pit();
  auto target = GetParam().target();
  std::size_t responded = 0;
  for (const model::DataModel& model : set.models()) {
    const Bytes packet = model::default_instance(model).serialize();
    if (!run_armed(*target, packet).response.empty()) ++responded;
  }
  EXPECT_GE(responded * 2, set.size())
      << "only " << responded << "/" << set.size() << " models responded";
}

TEST_P(PitSuite, SharedTagsSpanModels) {
  // The donor-transfer surface: at least one semantic tag must appear in
  // two or more different models of the pit.
  const model::DataModelSet set = GetParam().pit();
  std::map<std::string, std::set<std::string>> tag_to_models;
  for (const model::DataModel& model : set.models()) {
    for (const model::Chunk* leaf : model.leaves()) {
      if (leaf->tag() != leaf->name()) {
        tag_to_models[leaf->tag()].insert(model.name());
      }
    }
  }
  std::size_t shared = 0;
  for (const auto& [tag, models] : tag_to_models) {
    if (models.size() >= 2) ++shared;
  }
  EXPECT_GE(shared, 1u) << "no cross-model tags in " << GetParam().project;
}

// Chunk keys are computed once, when a chunk is built; they must equal the
// recursive definition for every chunk of every model.
std::uint64_t mix(std::uint64_t hash, std::uint64_t value) {
  return hash ^ (value + 0x9E3779B97F4A7C15ULL + (hash << 6) + (hash >> 2));
}

std::uint64_t recursive_shape_key(const model::Chunk& chunk) {
  std::uint64_t hash = 0xC0FFEE ^ static_cast<std::uint64_t>(chunk.kind());
  switch (chunk.kind()) {
    case model::ChunkKind::Number:
      hash = mix(hash, chunk.number_spec().width);
      hash = mix(hash, static_cast<std::uint64_t>(chunk.number_spec().endian));
      break;
    case model::ChunkKind::String:
      hash = mix(hash, chunk.string_spec().length.value_or(0));
      hash = mix(hash, chunk.string_spec().null_terminated ? 1 : 0);
      break;
    case model::ChunkKind::Blob:
      hash = mix(hash, chunk.blob_spec().length.value_or(0));
      hash = mix(hash, chunk.blob_spec().unit);
      break;
    case model::ChunkKind::Block:
    case model::ChunkKind::Choice:
      for (const model::Chunk& child : chunk.children()) {
        hash = mix(hash, recursive_shape_key(child));
      }
      break;
  }
  return hash;
}

std::uint64_t recursive_rule_key(const model::Chunk& chunk) {
  std::uint64_t hash = recursive_shape_key(chunk);
  for (char c : chunk.tag()) hash = mix(hash, static_cast<std::uint8_t>(c));
  hash = mix(hash, static_cast<std::uint64_t>(chunk.relation().kind));
  return mix(hash, static_cast<std::uint64_t>(chunk.fixup().kind));
}

/// Checks every chunk of `chunk`'s subtree; returns how many it checked.
std::size_t expect_stored_keys(const model::Chunk& chunk,
                               const std::string& model) {
  EXPECT_EQ(chunk.shape_key(), recursive_shape_key(chunk))
      << model << "/" << chunk.name();
  EXPECT_EQ(chunk.rule_key(), recursive_rule_key(chunk))
      << model << "/" << chunk.name();
  std::size_t checked = 1;
  for (const model::Chunk& child : chunk.children()) {
    checked += expect_stored_keys(child, model);
  }
  return checked;
}

TEST_P(PitSuite, StoredKeysMatchARecursiveRecomputation) {
  const model::DataModelSet set = GetParam().pit();
  for (const model::DataModel& model : set.models()) {
    EXPECT_EQ(expect_stored_keys(model.root(), model.name()),
              model.node_count());
  }
}

TEST_P(PitSuite, RegistryResolvesProjectName) {
  const model::DataModelSet set = pit_for_project(GetParam().project);
  EXPECT_EQ(set.size(), GetParam().pit().size());
}

INSTANTIATE_TEST_SUITE_P(
    AllProjects, PitSuite,
    ::testing::Values(
        PitCase{"libmodbus", &modbus_pit,
                [] { return std::make_unique<proto::ModbusServer>(); }},
        PitCase{"IEC104", &iec104_pit,
                [] { return std::make_unique<proto::Iec104Server>(); }},
        PitCase{"libiec61850", &mms_pit,
                [] { return std::make_unique<proto::MmsServer>(); }},
        PitCase{"lib60870", &cs101_pit,
                [] { return std::make_unique<proto::Cs101Server>(); }},
        PitCase{"libiec_iccp_mod", &iccp_pit,
                [] { return std::make_unique<proto::IccpServer>(); }},
        PitCase{"opendnp3", &dnp3_pit,
                [] { return std::make_unique<proto::Dnp3Server>(); }}),
    [](const ::testing::TestParamInfo<PitCase>& info) {
      std::string name = info.param.project;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Every protocol family with a server also ships a file-loadable XML pit
// (pits/*.xml); their defaults must be accepted by the matching stack.
struct XmlPitCase {
  const char* file;
  std::function<std::unique_ptr<ProtocolTarget>()> target;
};

class XmlPitSuite : public ::testing::TestWithParam<XmlPitCase> {};

TEST_P(XmlPitSuite, ShippedXmlDefaultsNeverFaultTheTarget) {
  const model::PitParseResult result = model::parse_pit_file(
      std::string(ICSFUZZ_PITS_DIR) + "/" + GetParam().file);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_GE(result.models.size(), 2u);
  auto target = GetParam().target();
  std::size_t responded = 0;
  for (const model::DataModel& model : result.models.models()) {
    const Bytes packet = model::default_instance(model).serialize();
    const auto run = run_armed(*target, packet);
    EXPECT_FALSE(run.crashed()) << model.name();
    if (!run.response.empty()) ++responded;
  }
  // At least one default per XML pit must be a valid, answered request.
  EXPECT_GE(responded, 1u) << GetParam().file;
}

TEST_P(XmlPitSuite, StoredKeysMatchARecursiveRecomputation) {
  const model::PitParseResult result = model::parse_pit_file(
      std::string(ICSFUZZ_PITS_DIR) + "/" + GetParam().file);
  ASSERT_TRUE(result.ok()) << result.error;
  for (const model::DataModel& model : result.models.models()) {
    EXPECT_EQ(expect_stored_keys(model.root(), model.name()),
              model.node_count());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, XmlPitSuite,
    ::testing::Values(
        XmlPitCase{"modbus.xml",
                   [] { return std::make_unique<proto::ModbusServer>(); }},
        XmlPitCase{"iec104.xml",
                   [] { return std::make_unique<proto::Iec104Server>(); }},
        XmlPitCase{"cs101.xml",
                   [] { return std::make_unique<proto::Cs101Server>(); }},
        XmlPitCase{"dnp3.xml",
                   [] { return std::make_unique<proto::Dnp3Server>(); }},
        XmlPitCase{"iccp.xml",
                   [] { return std::make_unique<proto::IccpServer>(); }},
        XmlPitCase{"mms.xml",
                   [] { return std::make_unique<proto::MmsServer>(); }}),
    [](const ::testing::TestParamInfo<XmlPitCase>& info) {
      std::string name = info.param.file;
      name = name.substr(0, name.find('.'));
      return name;
    });

TEST(PitRegistry, UnknownProjectGivesEmptySet) {
  EXPECT_TRUE(pit_for_project("unknown").empty());
}

TEST(PitRegistry, AllProjectNamesMatchPaper) {
  const auto& names = all_project_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "libmodbus");
  EXPECT_EQ(names[5], "opendnp3");
}

TEST(ModbusPitDetail, DeviceIdModelCoversBugSurface) {
  const model::DataModelSet set = modbus_pit();
  const model::DataModel* devid = set.find("ReadDeviceIdentification");
  ASSERT_NE(devid, nullptr);
  EXPECT_EQ(devid->opcode(), 0x2Bu);
  // ReadDevId 0x04 (individual access) must be among the legal values so
  // generation can reach the OOB path.
  const model::Chunk* read_dev_id =
      devid->find("ReadDeviceIdentification.ReadDevId");
  ASSERT_NE(read_dev_id, nullptr);
  const auto& legal = read_dev_id->number_spec().legal_values;
  EXPECT_NE(std::find(legal.begin(), legal.end(), 0x04), legal.end());
}

TEST(Cs101PitDetail, RawModelReachesTruncatedAsdus) {
  // The RawCs101 model must be able to emit I-frames whose ASDU is shorter
  // than 3 bytes — the getCOT bug's precondition.
  const model::DataModelSet set = cs101_pit();
  const model::DataModel* raw = set.find("RawCs101");
  ASSERT_NE(raw, nullptr);
  const model::Chunk* blob = raw->find("RawCs.I.Asdu.Blob");
  ASSERT_NE(blob, nullptr);
  EXPECT_FALSE(blob->blob_spec().length.has_value());  // variable length
}

TEST(Dnp3PitDetail, CrcFixupsProduceAcceptedFrames) {
  const model::DataModelSet set = dnp3_pit();
  proto::Dnp3Server server;
  const model::DataModel* read = set.find("DnpReadBinary");
  ASSERT_NE(read, nullptr);
  const Bytes packet = model::default_instance(*read).serialize();
  const auto run = run_armed(server, packet);
  // A CRC failure would yield an empty response; the fixups must hold.
  EXPECT_FALSE(run.response.empty());
}

}  // namespace
}  // namespace icsfuzz::pits
