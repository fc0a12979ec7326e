// Tests for ModelInstantiator's two generation profiles: Peach's
// sequential field mutation (defaults + 1-2 aberrant fields) and
// independent full-field regeneration.
#include <gtest/gtest.h>

#include "fuzzer/instantiator.hpp"
#include "pits/pits.hpp"

namespace icsfuzz::fuzz {
namespace {

using model::Chunk;
using model::DataModel;
using model::NumberSpec;

/// Token + three free 2-byte fields with distinct defaults.
DataModel probe_model() {
  std::vector<Chunk> fields;
  fields.push_back(Chunk::token("Fc", 1, Endian::Big, 0x42));
  for (int i = 0; i < 3; ++i) {
    NumberSpec spec;
    spec.width = 2;
    spec.default_value = static_cast<std::uint64_t>(0x1110 * (i + 1));
    fields.push_back(Chunk::number("F" + std::to_string(i), spec));
  }
  return DataModel("probe", Chunk::block("root", std::move(fields)));
}

std::array<std::uint16_t, 3> fields_of(const Bytes& packet) {
  return {static_cast<std::uint16_t>((packet[1] << 8) | packet[2]),
          static_cast<std::uint16_t>((packet[3] << 8) | packet[4]),
          static_cast<std::uint16_t>((packet[5] << 8) | packet[6])};
}

TEST(SequentialProfile, MostFieldsHoldDefaults) {
  mutation::MutatorConfig config;
  config.sequential_mode_pct = 100;
  config.post_mutate_pct = 0;
  ModelInstantiator instantiator(config);
  const DataModel model = probe_model();
  Rng rng(1);
  int deviations_total = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes packet = instantiator.generate(model, rng);
    ASSERT_EQ(packet.size(), 7u);
    EXPECT_EQ(packet[0], 0x42);
    const auto fields = fields_of(packet);
    int deviations = 0;
    deviations += fields[0] != 0x1110;
    deviations += fields[1] != 0x2220;
    deviations += fields[2] != 0x3330;
    EXPECT_LE(deviations, 2) << "iteration " << i;
    deviations_total += deviations;
  }
  EXPECT_GT(deviations_total, 0);  // something must actually mutate
}

TEST(FullRandomProfile, FieldsVaryIndependently) {
  mutation::MutatorConfig config;
  config.sequential_mode_pct = 0;
  config.default_value_pct = 0;
  config.legal_value_pct = 0;
  config.boundary_pct = 0;
  ModelInstantiator instantiator(config);
  const DataModel model = probe_model();
  Rng rng(2);
  int all_three_deviate = 0;
  for (int i = 0; i < 100; ++i) {
    const auto fields = fields_of(instantiator.generate(model, rng));
    if (fields[0] != 0x1110 && fields[1] != 0x2220 && fields[2] != 0x3330) {
      ++all_three_deviate;
    }
  }
  EXPECT_GT(all_three_deviate, 90);  // fully random: defaults vanish
}

TEST(FreeLeaves, ExcludesTokensRelationsAndFixups) {
  const model::DataModelSet set = pits::modbus_pit();
  const model::DataModel* model = set.find("WriteMultipleRegisters");
  ASSERT_NE(model, nullptr);
  ModelInstantiator instantiator;
  Rng rng(3);
  const auto& leaves = instantiator.build(*model, rng).free_leaves();
  for (const model::InsNode* leaf : leaves) {
    EXPECT_FALSE(leaf->rule->number_spec().is_token &&
                 leaf->rule->kind() == model::ChunkKind::Number);
    EXPECT_FALSE(leaf->rule->relation().active());
    EXPECT_FALSE(leaf->rule->fixup().active());
  }
  // WriteMultipleRegisters free leaves: TransactionId, UnitId, Address,
  // Values blob (FunctionCode/ProtocolId are tokens; Quantity/ByteCount
  // carry relations; Length carries a relation).
  EXPECT_EQ(leaves.size(), 4u);
}

TEST(SequentialProfile, ConstraintsStillHold) {
  mutation::MutatorConfig config;
  config.sequential_mode_pct = 100;
  ModelInstantiator instantiator(config);
  const model::DataModelSet set = pits::modbus_pit();
  Rng rng(4);
  for (const model::DataModel& model : set.models()) {
    for (int i = 0; i < 20; ++i) {
      const Bytes packet = instantiator.generate(model, rng);
      EXPECT_TRUE(model::parse_packet(model, packet).has_value())
          << model.name();
    }
  }
}

}  // namespace
}  // namespace icsfuzz::fuzz
