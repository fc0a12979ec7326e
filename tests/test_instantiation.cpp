// Tests for the instantiation tree: default generation, serialization,
// constraint application (File Fixup machinery) and — most importantly for
// the File Cracker — parse_packet's PARSE/LEGAL semantics, including
// property-style generate->parse->reserialize round-trips.
#include <gtest/gtest.h>

#include <set>

#include "fuzzer/instantiator.hpp"
#include "model/instantiation.hpp"
#include "pits/pits.hpp"
#include "util/checksum.hpp"

namespace icsfuzz::model {
namespace {

NumberSpec u8(std::uint64_t value = 0) {
  NumberSpec spec;
  spec.width = 1;
  spec.default_value = value;
  return spec;
}

NumberSpec u16(std::uint64_t value = 0) {
  NumberSpec spec;
  spec.width = 2;
  spec.default_value = value;
  return spec;
}

/// Magic(token) + Length(sizeof Body) + Body{A, Rest} + Crc32(Body).
DataModel framed_model() {
  std::vector<Chunk> fields;
  fields.push_back(Chunk::token("Magic", 2, Endian::Big, 0xABCD));
  Chunk length = Chunk::number("Length", u16());
  length.with_relation(Relation{RelationKind::SizeOf, "Body", 1, 0});
  fields.push_back(std::move(length));
  fields.push_back(Chunk::block("Body", {Chunk::number("A", u8(0x42)),
                                         Chunk::blob("Rest", {})}));
  Chunk crc = Chunk::number("Crc", NumberSpec{.width = 4});
  crc.with_fixup(Fixup{FixupKind::Crc32, "Body"});
  fields.push_back(std::move(crc));
  return DataModel("framed", Chunk::block("root", std::move(fields)));
}

TEST(DefaultInstance, SerializesWithConstraintsSatisfied) {
  const DataModel model = framed_model();
  const InsTree tree = default_instance(model);
  const Bytes wire = tree.serialize();
  // Magic(2) + Length(2) + Body(1 byte A + 0 rest) + CRC(4).
  ASSERT_EQ(wire.size(), 9u);
  EXPECT_EQ(wire[0], 0xAB);
  EXPECT_EQ(wire[1], 0xCD);
  EXPECT_EQ(wire[2], 0x00);
  EXPECT_EQ(wire[3], 0x01);  // sizeof(Body) == 1
  EXPECT_EQ(wire[4], 0x42);  // A's default
  const std::uint32_t expected_crc = crc32(ByteSpan(&wire[4], 1));
  EXPECT_EQ(decode_uint(ByteSpan(&wire[5], 4), Endian::Big), expected_crc);
}

TEST(ApplyConstraints, CountsRewrites) {
  const DataModel model = framed_model();
  InsTree tree = default_instance(model);
  // Already consistent: second run rewrites nothing (idempotence).
  EXPECT_EQ(apply_constraints(tree), 0u);
  // Corrupt the length and CRC, then repair.
  tree.root.find("Length")->content = {0xFF, 0xFF};
  tree.root.find("Crc")->content = {0, 0, 0, 0};
  EXPECT_EQ(apply_constraints(tree), 2u);
}

TEST(ApplyConstraints, RelationTracksGrowingBody) {
  const DataModel model = framed_model();
  InsTree tree = default_instance(model);
  tree.root.find("Rest")->content = Bytes(10, 0xEE);
  apply_constraints(tree);
  const Bytes wire = tree.serialize();
  EXPECT_EQ(decode_uint(ByteSpan(&wire[2], 2), Endian::Big), 11u);
}

TEST(InsNode, FindAndNodeCount) {
  const DataModel model = framed_model();
  InsTree tree = default_instance(model);
  EXPECT_NE(tree.root.find("Rest"), nullptr);
  EXPECT_EQ(tree.root.find("nope"), nullptr);
  EXPECT_EQ(tree.root.node_count(), 7u);  // root,Magic,Length,Body,A,Rest,Crc
}

TEST(InsNode, SerializedSizeMatchesSerialize) {
  const DataModel model = framed_model();
  const InsTree tree = default_instance(model);
  EXPECT_EQ(tree.root.serialized_size(), tree.serialize().size());
}

TEST(DumpTree, MentionsEveryNode) {
  const DataModel model = framed_model();
  const InsTree tree = default_instance(model);
  const std::string dump = dump_tree(tree);
  for (const char* name : {"Magic", "Length", "Body", "A", "Rest", "Crc"}) {
    EXPECT_NE(dump.find(name), std::string::npos) << name;
  }
}

// -------------------------------------------------------------------- Parse

TEST(Parse, AcceptsOwnSerialization) {
  const DataModel model = framed_model();
  const Bytes wire = default_instance(model).serialize();
  EXPECT_TRUE(parse_packet(model, wire).has_value());
}

TEST(Parse, RejectsTokenMismatch) {
  const DataModel model = framed_model();
  Bytes wire = default_instance(model).serialize();
  wire[0] ^= 0xFF;  // break the magic token
  EXPECT_FALSE(parse_packet(model, wire).has_value());
}

TEST(Parse, RejectsBadChecksum) {
  const DataModel model = framed_model();
  Bytes wire = default_instance(model).serialize();
  wire.back() ^= 0x01;
  EXPECT_FALSE(parse_packet(model, wire).has_value());
  ParseOptions lax;
  lax.verify_fixups = false;
  EXPECT_TRUE(parse_packet(model, wire, lax).has_value());
}

TEST(Parse, RejectsBadLengthField) {
  const DataModel model = framed_model();
  Bytes wire = default_instance(model).serialize();
  wire[3] = 0x05;  // claims a 5-byte body; framing no longer adds up
  EXPECT_FALSE(parse_packet(model, wire).has_value());
}

TEST(Parse, RejectsTrailingGarbage) {
  const DataModel model = framed_model();
  Bytes wire = default_instance(model).serialize();
  wire.push_back(0x00);
  EXPECT_FALSE(parse_packet(model, wire).has_value());
  ParseOptions lax;
  lax.require_full_consumption = false;
  lax.verify_fixups = false;   // CRC field now parses mid-garbage fine
  lax.verify_relations = false;
  EXPECT_TRUE(parse_packet(model, wire, lax).has_value());
}

TEST(Parse, RejectsTruncation) {
  const DataModel model = framed_model();
  Bytes wire = default_instance(model).serialize();
  wire.resize(wire.size() - 2);
  EXPECT_FALSE(parse_packet(model, wire).has_value());
}

TEST(Parse, SizedBodyCarvesVariableBlob) {
  const DataModel model = framed_model();
  InsTree tree = default_instance(model);
  tree.root.find("Rest")->content = {0xAA, 0xBB, 0xCC};
  apply_constraints(tree);
  const Bytes wire = tree.serialize();
  auto parsed = parse_packet(model, wire);
  ASSERT_TRUE(parsed.has_value());
  const InsNode* rest = parsed->root.find("Rest");
  ASSERT_NE(rest, nullptr);
  EXPECT_EQ(rest->content, (Bytes{0xAA, 0xBB, 0xCC}));
}

TEST(Parse, ChoiceSelectsMatchingAlternative) {
  std::vector<Chunk> alts;
  alts.push_back(Chunk::block("ReadAlt", {Chunk::token("ReadFc", 1, Endian::Big, 3),
                                          Chunk::number("ReadAddr", u16())}));
  alts.push_back(Chunk::block("WriteAlt", {Chunk::token("WriteFc", 1, Endian::Big, 6),
                                           Chunk::number("WriteAddr", u16())}));
  DataModel model("choice", Chunk::block("root", {Chunk::choice("Pdu", std::move(alts))}));
  ASSERT_FALSE(model.validate().has_value());

  const Bytes write_wire{0x06, 0x00, 0x10};
  auto parsed = parse_packet(model, write_wire);
  ASSERT_TRUE(parsed.has_value());
  const InsNode& choice = parsed->root.children[0];
  EXPECT_EQ(choice.choice_index, 1u);
  EXPECT_NE(parsed->root.find("WriteAddr"), nullptr);

  const Bytes bogus{0x07, 0x00, 0x10};
  EXPECT_FALSE(parse_packet(model, bogus).has_value());
}

/// Len(sizeof Op) + Op{Read | Write{Addr, PLen, Payload{Bytes | Text |
/// Nested{Deep, Inner{D1 | D2}}}, Crc16(Payload)} | Ping} + Sum8(Op): nested
/// choices with constraints across them, none of which the built-in pits
/// exercise.
DataModel nested_choice_model() {
  std::vector<Chunk> inner;
  inner.push_back(Chunk::number("D1", u8(1)));
  inner.push_back(Chunk::blob("D2", {}));
  std::vector<Chunk> nested;
  nested.push_back(Chunk::blob("Deep", {}));
  nested.push_back(Chunk::choice("Inner", std::move(inner)));
  std::vector<Chunk> payload;
  payload.push_back(Chunk::blob("Bytes", {}));
  payload.push_back(Chunk::string("Text", StringSpec{.default_value = "hi"}));
  payload.push_back(Chunk::block("Nested", std::move(nested)));
  Chunk plen = Chunk::number("PLen", u8());
  plen.with_relation(Relation{RelationKind::SizeOf, "Payload", 1, 0});
  Chunk crc = Chunk::number("Crc", u16());
  crc.with_fixup(Fixup{FixupKind::Crc16Modbus, "Payload"});
  std::vector<Chunk> write;
  write.push_back(Chunk::number("Addr", u16(0x20)));
  write.push_back(std::move(plen));
  write.push_back(Chunk::choice("Payload", std::move(payload)));
  write.push_back(std::move(crc));
  std::vector<Chunk> ops;
  ops.push_back(Chunk::block("Read", {Chunk::token("ReadFc", 1, Endian::Big, 3),
                                      Chunk::number("ReadAddr", u16())}));
  ops.push_back(Chunk::block("Write", std::move(write)));
  ops.push_back(Chunk::token("Ping", 1, Endian::Big, 8));
  Chunk len = Chunk::number("Len", u16());
  len.with_relation(Relation{RelationKind::SizeOf, "Op", 1, 0});
  Chunk sum = Chunk::number("Sum", u8());
  sum.with_fixup(Fixup{FixupKind::Sum8, "Op"});
  std::vector<Chunk> root;
  root.push_back(std::move(len));
  root.push_back(Chunk::choice("Op", std::move(ops)));
  root.push_back(std::move(sum));
  return DataModel("nested", Chunk::block("root", std::move(root)));
}

// A TreeBuilder reused packet after packet parks and restores Choice
// alternatives; every rebuild must equal a fresh build from the same RNG
// state, node for node, with its constraints satisfied.
TEST(TreeBuilder, ReusedTreeMatchesAFreshBuild) {
  const DataModel model = nested_choice_model();
  ASSERT_FALSE(model.validate().has_value());
  const mutation::MutatorSuite mutators;
  const auto build = [&](TreeBuilder& builder, Rng& rng) -> InsTree& {
    builder.rebuild(
        model,
        [&](const Chunk& choice) { return rng.index(choice.children().size()); },
        [&](const Chunk& leaf, Bytes& content) {
          mutators.generate_leaf_into(leaf, rng, content);
        });
    builder.apply_constraints();
    return builder.tree();
  };
  TreeBuilder reused;
  std::set<std::size_t> ops_seen;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    Rng reused_rng(i);
    Rng fresh_rng(i);
    TreeBuilder fresh;
    const InsTree& got = build(reused, reused_rng);
    const InsTree& want = build(fresh, fresh_rng);
    ASSERT_EQ(dump_tree(got), dump_tree(want)) << "iteration " << i;
    ASSERT_EQ(got.root.node_count(), want.root.node_count());
    ops_seen.insert(*got.root.children[1].choice_index);
    InsTree copy = got;
    ASSERT_EQ(apply_constraints(copy), 0u) << "iteration " << i;
  }
  EXPECT_EQ(ops_seen.size(), 3u);
}

TEST(Parse, NullTerminatedString) {
  StringSpec spec;
  spec.null_terminated = true;
  DataModel model("str", Chunk::block("root", {Chunk::string("Name", spec),
                                               Chunk::number("Tail", u8())}));
  const Bytes wire{'h', 'i', 0x00, 0x42};
  auto parsed = parse_packet(model, wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->root.find("Name")->content, (Bytes{'h', 'i', 0x00}));
  EXPECT_EQ(parsed->root.find("Tail")->content, (Bytes{0x42}));

  const Bytes unterminated{'h', 'i'};
  EXPECT_FALSE(parse_packet(model, unterminated).has_value());
}

TEST(Parse, CountOfRelationCarvesElementArray) {
  Chunk count = Chunk::number("Count", u8());
  count.with_relation(Relation{RelationKind::CountOf, "Items", 2, 0});
  BlobSpec items;
  items.unit = 2;
  DataModel model("counted",
                  Chunk::block("root", {std::move(count),
                                        Chunk::blob("Items", items),
                                        Chunk::number("Tail", u8())}));
  const Bytes wire{0x02, 1, 2, 3, 4, 0x99};
  auto parsed = parse_packet(model, wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->root.find("Items")->content, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(parsed->root.find("Tail")->content, (Bytes{0x99}));

  const Bytes short_wire{0x05, 1, 2};  // claims 5 elements, has 1
  EXPECT_FALSE(parse_packet(model, short_wire).has_value());
}

TEST(Parse, RelationBiasInverted) {
  // TPKT-style: length counts a 4-byte header plus the payload.
  Chunk length = Chunk::number("Len", u16());
  length.with_relation(Relation{RelationKind::SizeOf, "Payload", 1, 4});
  DataModel model("tpkt", Chunk::block("root", {Chunk::token("Ver", 2, Endian::Big, 0x0300),
                                                std::move(length),
                                                Chunk::blob("Payload", {})}));
  const Bytes wire{0x03, 0x00, 0x00, 0x07, 0xAA, 0xBB, 0xCC};
  auto parsed = parse_packet(model, wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->root.find("Payload")->content.size(), 3u);
  // A length below the bias must fail, not wrap around.
  const Bytes underflow{0x03, 0x00, 0x00, 0x02};
  EXPECT_FALSE(parse_packet(model, underflow).has_value());
}

// ------------------------------------------- Property: roundtrip per pit

struct RoundTripCase {
  const char* pit_name;
  model::DataModelSet (*pit)();
};

class PitRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

// Generate with the mutators, then every packet must (a) parse against its
// own model, (b) reserialize to identical bytes, and (c) keep relations and
// fixups verified — the LEGAL property the cracker relies on.
TEST_P(PitRoundTrip, GenerateParseReserialize) {
  const model::DataModelSet set = GetParam().pit();
  ASSERT_FALSE(set.validate().has_value());
  fuzz::ModelInstantiator instantiator;
  Rng rng(1234);
  for (const DataModel& model : set.models()) {
    for (int i = 0; i < 25; ++i) {
      const Bytes wire = instantiator.generate(model, rng);
      auto parsed = parse_packet(model, wire);
      ASSERT_TRUE(parsed.has_value())
          << model.name() << " iteration " << i;
      EXPECT_EQ(parsed->serialize(), wire) << model.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPits, PitRoundTrip,
    ::testing::Values(RoundTripCase{"modbus", &pits::modbus_pit},
                      RoundTripCase{"iec104", &pits::iec104_pit},
                      RoundTripCase{"cs101", &pits::cs101_pit},
                      RoundTripCase{"iccp", &pits::iccp_pit},
                      RoundTripCase{"dnp3", &pits::dnp3_pit},
                      RoundTripCase{"mms", &pits::mms_pit}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return info.param.pit_name;
    });

}  // namespace
}  // namespace icsfuzz::model
