// Tests for the XML mini-DOM and the Pit front-end that turns Peach-style
// XML format specifications into DataModel sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "model/instantiation.hpp"
#include "model/pit_parser.hpp"
#include "model/xml.hpp"

namespace icsfuzz::model {
namespace {

// ---------------------------------------------------------------------- XML

TEST(Xml, ParsesElementsAttributesAndText) {
  const auto result = parse_xml(
      R"(<?xml version="1.0"?>
      <Root a="1" b="two">
        <Child name='x'/>
        text here
        <Child name="y">inner</Child>
      </Root>)");
  ASSERT_TRUE(result.ok()) << result.error;
  const XmlElement& root = *result.root;
  EXPECT_EQ(root.name, "Root");
  EXPECT_EQ(root.attr("a"), "1");
  EXPECT_EQ(root.attr("b"), "two");
  EXPECT_FALSE(root.attr("absent").has_value());
  ASSERT_EQ(root.children_named("Child").size(), 2u);
  EXPECT_EQ(root.first_child("Child")->attr("name"), "x");
  EXPECT_NE(root.text.find("text here"), std::string::npos);
  EXPECT_EQ(root.children[1].text, "inner");
}

TEST(Xml, ParsesComments) {
  const auto result = parse_xml("<A><!-- nothing --><B/></A>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.root->children.size(), 1u);
}

TEST(Xml, DecodesEntities) {
  const auto result = parse_xml(R"(<A v="&lt;&amp;&gt;">&quot;x&apos;</A>)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.root->attr("v"), "<&>");
  EXPECT_EQ(result.root->text, "\"x'");
}

TEST(Xml, RejectsMismatchedTags) {
  EXPECT_FALSE(parse_xml("<A><B></A></B>").ok());
}

TEST(Xml, RejectsUnterminatedElement) {
  EXPECT_FALSE(parse_xml("<A><B>").ok());
}

TEST(Xml, RejectsTrailingContent) {
  EXPECT_FALSE(parse_xml("<A/><B/>").ok());
}

TEST(Xml, RejectsUnquotedAttribute) {
  EXPECT_FALSE(parse_xml("<A v=1/>").ok());
}

TEST(Xml, ErrorsIncludeOffset) {
  const auto result = parse_xml("<A><B></A>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("offset"), std::string::npos);
}

/// `depth` nested elements: <Peach> around depth - 1 levels of <a>.
std::string nested_document(std::size_t depth) {
  std::string text = "<Peach>";
  for (std::size_t i = 1; i < depth; ++i) text += "<a>";
  for (std::size_t i = 1; i < depth; ++i) text += "</a>";
  return text + "</Peach>";
}

TEST(Xml, NestingIsBoundedAtTheDepthLimit) {
  const auto at_limit = parse_xml(nested_document(kMaxXmlDepth));
  EXPECT_TRUE(at_limit.ok()) << at_limit.error;

  const std::string deeper = nested_document(kMaxXmlDepth + 1);
  const auto above = parse_xml(deeper);
  ASSERT_FALSE(above.ok());
  EXPECT_NE(above.error.find("nesting deeper than"), std::string::npos)
      << above.error;
  // The offset is the too-deep element's '<'.
  const std::size_t offset = 7 + 3 * (kMaxXmlDepth - 1);
  EXPECT_NE(above.error.find("offset " + std::to_string(offset)),
            std::string::npos)
      << above.error;
  // A pit goes through the same parser: a nesting deep enough to overflow
  // an unbounded recursive parser's stack is an XML error.
  const auto pit = parse_pit(nested_document(100000));
  ASSERT_FALSE(pit.ok());
  EXPECT_NE(pit.error.find("nesting deeper than"), std::string::npos)
      << pit.error;
}

// ---------------------------------------------------------------------- Pit

constexpr const char* kMiniPit = R"(
<Peach>
  <DataModel name="Frame" opcode="3">
    <Number name="Magic" size="16" token="true" value="0xABCD"/>
    <Number name="Length" size="16">
      <Relation type="sizeof" of="Body"/>
    </Number>
    <Block name="Body">
      <Number name="Kind" size="8" values="1,2,3" value="1" tag="kind"/>
      <Blob name="Payload" maxGenerated="8"/>
    </Block>
    <Number name="Crc" size="32">
      <Fixup class="Crc32Fixup" ref="Body"/>
    </Number>
  </DataModel>
</Peach>
)";

TEST(Pit, ParsesMiniPit) {
  const PitParseResult result = parse_pit(kMiniPit);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.models.size(), 1u);
  const DataModel& model = *result.models.find("Frame");
  EXPECT_EQ(model.opcode(), 3u);
  ASSERT_NE(model.find("Kind"), nullptr);
  EXPECT_EQ(model.find("Kind")->tag(), "kind");
  EXPECT_EQ(model.find("Kind")->number_spec().legal_values.size(), 3u);
  EXPECT_EQ(model.find("Magic")->number_spec().is_token, true);
  EXPECT_EQ(model.find("Length")->relation().kind, RelationKind::SizeOf);
  EXPECT_EQ(model.find("Crc")->fixup().kind, FixupKind::Crc32);
}

TEST(Pit, ParsedModelGeneratesAndReparses) {
  const PitParseResult result = parse_pit(kMiniPit);
  ASSERT_TRUE(result.ok());
  const DataModel& model = result.models.at(0);
  const Bytes wire = default_instance(model).serialize();
  EXPECT_TRUE(parse_packet(model, wire).has_value());
}

TEST(Pit, SizeAttributeIsBits) {
  const auto result = parse_pit(
      R"(<Peach><DataModel name="m"><Number name="n" size="24"/></DataModel></Peach>)");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.models.at(0).find("n")->number_spec().width, 3u);
}

TEST(Pit, RejectsNonByteSizes) {
  const auto result = parse_pit(
      R"(<Peach><DataModel name="m"><Number name="n" size="12"/></DataModel></Peach>)");
  EXPECT_FALSE(result.ok());
}

TEST(Pit, RejectsLengthsAboveTheFieldCap) {
  const auto pit_with = [](const std::string& field) {
    return parse_pit("<Peach><DataModel name='m'>" + field +
                     "</DataModel></Peach>");
  };
  const std::string over = std::to_string(kMaxPitFieldBytes + 1);
  const std::vector<std::string> fields = {
      "<Blob name='b' length='18446744073709551615'/>",
      "<Blob name='b' length='" + over + "'/>",
      "<String name='s' length='18446744073709551615'/>",
      "<Blob name='b' maxGenerated='18446744073709551615'/>",
      "<String name='s' maxGenerated='" + over + "'/>",
      "<Blob name='b' length='18446744073709551616'/>",
  };
  for (const std::string& field : fields) {
    EXPECT_FALSE(pit_with(field).ok()) << field;
  }
  // At the cap is still a pit.
  EXPECT_TRUE(pit_with("<Blob name='b' length='" +
                       std::to_string(kMaxPitFieldBytes) + "'/>")
                  .ok());
}

TEST(Pit, RejectsBiasOutsideSigned64Bits) {
  const auto pit_with_bias = [](const std::string& bias) {
    return parse_pit(
        "<Peach><DataModel name='m'><Number name='len' size='8'>"
        "<Relation type='sizeof' of='b' bias='" + bias +
        "'/></Number><Blob name='b'/></DataModel></Peach>");
  };
  EXPECT_FALSE(pit_with_bias("9223372036854775808").ok());
  EXPECT_FALSE(pit_with_bias("-9223372036854775809").ok());
  EXPECT_FALSE(pit_with_bias("18446744073709551616").ok());
  // INT64_MIN itself is in range, and parses without a signed overflow.
  const auto lowest = pit_with_bias("-9223372036854775808");
  ASSERT_TRUE(lowest.ok()) << lowest.error;
  EXPECT_EQ(lowest.models.at(0).find("len")->relation().bias, INT64_MIN);
  // Both extremes drive the relation arithmetic, forwards and inverted,
  // without a signed overflow (UBSan builds check this).
  for (const char* bias : {"-9223372036854775808", "9223372036854775807"}) {
    const auto pit = pit_with_bias(bias);
    ASSERT_TRUE(pit.ok()) << pit.error;
    const DataModel& model = pit.models.at(0);
    const Bytes wire = default_instance(model).serialize();
    ASSERT_EQ(wire.size(), 1u) << bias;
    EXPECT_EQ(wire[0], bias[0] == '-' ? 0x00 : 0xFF) << bias;
    EXPECT_FALSE(parse_packet(model, wire).has_value()) << bias;
  }
}

TEST(Pit, RejectsUnitsAboveU32) {
  EXPECT_FALSE(parse_pit("<Peach><DataModel name='m'><Blob name='b' "
                         "unit='4294967296'/></DataModel></Peach>")
                   .ok());
  EXPECT_FALSE(
      parse_pit("<Peach><DataModel name='m'><Number name='len' size='8'>"
                "<Relation type='countof' of='b' unit='4294967296'/></Number>"
                "<Blob name='b'/></DataModel></Peach>")
          .ok());
}

TEST(Pit, RejectsUnknownElement) {
  const auto result = parse_pit(
      R"(<Peach><DataModel name="m"><Widget name="w"/></DataModel></Peach>)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("Widget"), std::string::npos);
}

TEST(Pit, RejectsMissingNames) {
  EXPECT_FALSE(parse_pit(R"(<Peach><DataModel name="m"><Number size="8"/></DataModel></Peach>)").ok());
  EXPECT_FALSE(parse_pit(R"(<Peach><DataModel><Number name="n" size="8"/></DataModel></Peach>)").ok());
}

TEST(Pit, RejectsDanglingRelation) {
  const auto result = parse_pit(
      R"(<Peach><DataModel name="m">
           <Number name="n" size="8"><Relation type="sizeof" of="ghost"/></Number>
         </DataModel></Peach>)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("ghost"), std::string::npos);
}

TEST(Pit, RejectsBadFixupClass) {
  const auto result = parse_pit(
      R"(<Peach><DataModel name="m">
           <Number name="n" size="16"><Fixup class="Nope" ref="n"/></Number>
         </DataModel></Peach>)");
  EXPECT_FALSE(result.ok());
}

TEST(Pit, RejectsEmptyDocument) {
  EXPECT_FALSE(parse_pit("<Peach></Peach>").ok());
  EXPECT_FALSE(parse_pit("<NotPeach/>").ok());
}

TEST(Pit, StringAndChoiceElements) {
  const auto result = parse_pit(R"(
    <Peach>
      <DataModel name="m">
        <Choice name="c">
          <Block name="alt1">
            <Number name="t1" size="8" token="true" value="1"/>
            <String name="s" length="4" value="abcd"/>
          </Block>
          <Block name="alt2">
            <Number name="t2" size="8" token="true" value="2"/>
            <String name="z" nullTerminated="true" value="hi"/>
          </Block>
        </Choice>
      </DataModel>
    </Peach>)");
  ASSERT_TRUE(result.ok()) << result.error;
  const DataModel& model = result.models.at(0);
  EXPECT_EQ(model.find("c")->kind(), ChunkKind::Choice);
  EXPECT_EQ(model.find("s")->string_spec().length, 4u);
  EXPECT_TRUE(model.find("z")->string_spec().null_terminated);

  // Parse both alternatives.
  EXPECT_TRUE(parse_packet(model, Bytes{1, 'a', 'b', 'c', 'd'}).has_value());
  EXPECT_TRUE(parse_packet(model, Bytes{2, 'h', 'i', 0}).has_value());
  EXPECT_FALSE(parse_packet(model, Bytes{3, 0}).has_value());
}

TEST(Pit, BlobValueHex) {
  const auto result = parse_pit(
      R"(<Peach><DataModel name="m"><Blob name="b" valueHex="dead beef"/></DataModel></Peach>)");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.models.at(0).find("b")->blob_spec().default_value,
            (Bytes{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(Pit, RelationUnitAndBias) {
  const auto result = parse_pit(R"(
    <Peach><DataModel name="m">
      <Number name="len" size="8"><Relation type="countof" of="b" unit="2" bias="-1"/></Number>
      <Blob name="b" unit="2"/>
    </DataModel></Peach>)");
  ASSERT_TRUE(result.ok()) << result.error;
  const Relation& rel = result.models.at(0).find("len")->relation();
  EXPECT_EQ(rel.kind, RelationKind::CountOf);
  EXPECT_EQ(rel.unit, 2u);
  EXPECT_EQ(rel.bias, -1);
}

TEST(Pit, FileLoaderReportsMissingFile) {
  const PitParseResult result = parse_pit_file("/nonexistent/path.xml");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

TEST(Pit, ShippedModbusXmlLoadsAndRoundTrips) {
  const PitParseResult result =
      parse_pit_file(std::string(ICSFUZZ_PITS_DIR) + "/modbus.xml");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.models.size(), 4u);
  ASSERT_FALSE(result.models.validate().has_value());
  for (const DataModel& model : result.models.models()) {
    const Bytes wire = default_instance(model).serialize();
    EXPECT_TRUE(parse_packet(model, wire).has_value()) << model.name();
  }
}

TEST(Pit, ShippedIec104XmlLoadsAndRoundTrips) {
  const PitParseResult result =
      parse_pit_file(std::string(ICSFUZZ_PITS_DIR) + "/iec104.xml");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.models.size(), 3u);
  ASSERT_FALSE(result.models.validate().has_value());
  for (const DataModel& model : result.models.models()) {
    const Bytes wire = default_instance(model).serialize();
    EXPECT_TRUE(parse_packet(model, wire).has_value()) << model.name();
  }
}

TEST(Pit, ShippedCs101XmlLoadsAndRoundTrips) {
  const PitParseResult result =
      parse_pit_file(std::string(ICSFUZZ_PITS_DIR) + "/cs101.xml");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.models.size(), 3u);
  ASSERT_FALSE(result.models.validate().has_value());
  for (const DataModel& model : result.models.models()) {
    const Bytes wire = default_instance(model).serialize();
    EXPECT_TRUE(parse_packet(model, wire).has_value()) << model.name();
  }
}

TEST(Pit, ShippedDnp3XmlLoadsAndRoundTrips) {
  const PitParseResult result =
      parse_pit_file(std::string(ICSFUZZ_PITS_DIR) + "/dnp3.xml");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.models.size(), 3u);
  ASSERT_FALSE(result.models.validate().has_value());
  for (const DataModel& model : result.models.models()) {
    const Bytes wire = default_instance(model).serialize();
    EXPECT_TRUE(parse_packet(model, wire).has_value()) << model.name();
  }
  // The link frames must carry real DNP3 CRC fixups, not placeholders.
  const DataModel* read = result.models.find("DnpReadAllObjects");
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->find("HeaderCrc")->fixup().kind, FixupKind::CrcDnp3);
  EXPECT_EQ(read->find("BlockCrc")->fixup().kind, FixupKind::CrcDnp3);
}

TEST(Pit, ShippedIccpXmlLoadsAndRoundTrips) {
  const PitParseResult result =
      parse_pit_file(std::string(ICSFUZZ_PITS_DIR) + "/iccp.xml");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.models.size(), 2u);
  ASSERT_FALSE(result.models.validate().has_value());
  for (const DataModel& model : result.models.models()) {
    const Bytes wire = default_instance(model).serialize();
    EXPECT_TRUE(parse_packet(model, wire).has_value()) << model.name();
  }
}

TEST(Pit, ShippedMmsXmlLoadsAndRoundTrips) {
  const PitParseResult result =
      parse_pit_file(std::string(ICSFUZZ_PITS_DIR) + "/mms.xml");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.models.size(), 2u);
  ASSERT_FALSE(result.models.validate().has_value());
  for (const DataModel& model : result.models.models()) {
    const Bytes wire = default_instance(model).serialize();
    EXPECT_TRUE(parse_packet(model, wire).has_value()) << model.name();
  }
}

TEST(Pit, ShippedHvacXmlLoads) {
  const PitParseResult result =
      parse_pit_file(std::string(ICSFUZZ_PITS_DIR) + "/hvac.xml");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.models.size(), 2u);
  const DataModel* set_model = result.models.find("SetSetpoint");
  ASSERT_NE(set_model, nullptr);
  EXPECT_EQ(set_model->find("Check")->fixup().kind, FixupKind::Fletcher16);
}

}  // namespace
}  // namespace icsfuzz::model
