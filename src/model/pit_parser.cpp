#include "model/pit_parser.hpp"

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>

#include "model/xml.hpp"
#include "util/hexdump.hpp"
#include "util/strings.hpp"

namespace icsfuzz::model {
namespace {

struct ChunkBuildResult {
  std::optional<Chunk> chunk;
  std::string error;
};

ChunkBuildResult build_error(std::string message) {
  return ChunkBuildResult{std::nullopt, std::move(message)};
}

/// A byte count (String/Blob `length`, `maxGenerated`) of at most
/// kMaxPitFieldBytes.
std::optional<std::size_t> parse_field_bytes(std::string_view text) {
  const std::optional<std::uint64_t> parsed = parse_uint(text);
  if (!parsed || *parsed > kMaxPitFieldBytes) return std::nullopt;
  return static_cast<std::size_t>(*parsed);
}

/// A nonzero `unit` that fits its u32.
std::optional<std::uint32_t> parse_unit(std::string_view text) {
  const std::optional<std::uint64_t> parsed = parse_uint(text);
  if (!parsed || *parsed == 0 || *parsed > UINT32_MAX) return std::nullopt;
  return static_cast<std::uint32_t>(*parsed);
}

Endian parse_endian(const XmlElement& element) {
  const std::string value = to_lower(element.attr("endian").value_or("big"));
  return value == "little" ? Endian::Little : Endian::Big;
}

/// Applies <Relation> / <Fixup> child elements and tag attribute.
std::string apply_common(Chunk& chunk, const XmlElement& element) {
  if (auto tag = element.attr("tag")) chunk.with_tag(*tag);
  if (const XmlElement* rel = element.first_child("Relation")) {
    Relation relation;
    relation.kind = relation_kind_from_string(rel->attr("type").value_or(""));
    if (relation.kind == RelationKind::None) {
      return "bad Relation type on " + chunk.name();
    }
    auto of = rel->attr("of");
    if (!of || of->empty()) return "Relation without 'of' on " + chunk.name();
    relation.target = *of;
    if (auto unit = rel->attr("unit")) {
      auto parsed = parse_unit(*unit);
      if (!parsed) return "bad Relation unit on " + chunk.name();
      relation.unit = *parsed;
    }
    if (auto bias = rel->attr("bias")) {
      auto parsed = parse_int(*bias);
      if (!parsed) return "bad Relation bias on " + chunk.name();
      relation.bias = *parsed;
    }
    chunk.with_relation(relation);
  }
  if (const XmlElement* fix = element.first_child("Fixup")) {
    Fixup fixup;
    fixup.kind = fixup_kind_from_string(fix->attr("class").value_or(""));
    if (fixup.kind == FixupKind::None) {
      return "bad Fixup class on " + chunk.name();
    }
    auto ref = fix->attr("ref");
    if (!ref || ref->empty()) return "Fixup without 'ref' on " + chunk.name();
    fixup.ref = *ref;
    chunk.with_fixup(fixup);
  }
  return {};
}

ChunkBuildResult build_chunk(const XmlElement& element);

ChunkBuildResult build_number(const XmlElement& element,
                              const std::string& name) {
  NumberSpec spec;
  const std::string size_text = element.attr("size").value_or("8");
  auto size_bits = parse_uint(size_text);
  if (!size_bits || *size_bits == 0 || *size_bits % 8 != 0 || *size_bits > 64) {
    return build_error("bad Number size '" + size_text + "' on " + name);
  }
  spec.width = static_cast<std::size_t>(*size_bits / 8);
  spec.endian = parse_endian(element);
  if (auto value = element.attr("value")) {
    auto parsed = parse_uint(*value);
    if (!parsed) return build_error("bad Number value on " + name);
    spec.default_value = *parsed;
  }
  if (auto token = element.attr("token")) {
    auto parsed = parse_bool(*token);
    if (!parsed) return build_error("bad token attribute on " + name);
    spec.is_token = *parsed;
  }
  if (auto values = element.attr("values")) {
    for (const std::string& item : split(*values, ',')) {
      auto parsed = parse_uint(trim(item));
      if (!parsed) return build_error("bad values list on " + name);
      spec.legal_values.push_back(*parsed);
    }
  }
  if (auto min = element.attr("min")) {
    auto parsed = parse_uint(*min);
    if (!parsed) return build_error("bad min on " + name);
    spec.min_value = *parsed;
  }
  if (auto max = element.attr("max")) {
    auto parsed = parse_uint(*max);
    if (!parsed) return build_error("bad max on " + name);
    spec.max_value = *parsed;
  }
  if (spec.is_token && spec.legal_values.empty()) {
    spec.legal_values = {spec.default_value};
  }
  Chunk chunk = Chunk::number(name, std::move(spec));
  if (std::string error = apply_common(chunk, element); !error.empty()) {
    return build_error(std::move(error));
  }
  return ChunkBuildResult{std::move(chunk), {}};
}

ChunkBuildResult build_string(const XmlElement& element,
                              const std::string& name) {
  StringSpec spec;
  if (auto length = element.attr("length")) {
    auto parsed = parse_field_bytes(*length);
    if (!parsed) return build_error("bad String length on " + name);
    spec.length = *parsed;
  }
  spec.default_value = element.attr("value").value_or("");
  if (auto terminated = element.attr("nullTerminated")) {
    auto parsed = parse_bool(*terminated);
    if (!parsed) return build_error("bad nullTerminated on " + name);
    spec.null_terminated = *parsed;
  }
  if (auto max_generated = element.attr("maxGenerated")) {
    auto parsed = parse_field_bytes(*max_generated);
    if (!parsed || *parsed == 0) return build_error("bad maxGenerated on " + name);
    spec.max_generated = *parsed;
  }
  Chunk chunk = Chunk::string(name, std::move(spec));
  if (std::string error = apply_common(chunk, element); !error.empty()) {
    return build_error(std::move(error));
  }
  return ChunkBuildResult{std::move(chunk), {}};
}

ChunkBuildResult build_blob(const XmlElement& element, const std::string& name) {
  BlobSpec spec;
  if (auto length = element.attr("length")) {
    auto parsed = parse_field_bytes(*length);
    if (!parsed) return build_error("bad Blob length on " + name);
    spec.length = *parsed;
  }
  if (auto value = element.attr("valueHex")) {
    spec.default_value = from_hex(*value);
    if (spec.default_value.empty() && !value->empty()) {
      return build_error("bad Blob valueHex on " + name);
    }
  } else if (auto text_value = element.attr("value")) {
    spec.default_value = to_bytes(*text_value);
  }
  if (auto unit = element.attr("unit")) {
    auto parsed = parse_unit(*unit);
    if (!parsed) return build_error("bad Blob unit on " + name);
    spec.unit = *parsed;
  }
  if (auto max_generated = element.attr("maxGenerated")) {
    auto parsed = parse_field_bytes(*max_generated);
    if (!parsed) return build_error("bad maxGenerated on " + name);
    spec.max_generated = *parsed;
  }
  Chunk chunk = Chunk::blob(name, std::move(spec));
  if (std::string error = apply_common(chunk, element); !error.empty()) {
    return build_error(std::move(error));
  }
  return ChunkBuildResult{std::move(chunk), {}};
}

ChunkBuildResult build_composite(const XmlElement& element,
                                 const std::string& name, bool is_choice) {
  std::vector<Chunk> children;
  for (const XmlElement& child : element.children) {
    if (child.name == "Relation" || child.name == "Fixup") continue;
    auto result = build_chunk(child);
    if (!result.chunk) return result;
    children.push_back(std::move(*result.chunk));
  }
  if (children.empty()) {
    return build_error(std::string(is_choice ? "Choice" : "Block") +
                       " with no children: " + name);
  }
  Chunk chunk = is_choice ? Chunk::choice(name, std::move(children))
                          : Chunk::block(name, std::move(children));
  if (std::string error = apply_common(chunk, element); !error.empty()) {
    return build_error(std::move(error));
  }
  return ChunkBuildResult{std::move(chunk), {}};
}

ChunkBuildResult build_chunk(const XmlElement& element) {
  const std::string name = element.attr("name").value_or("");
  if (name.empty()) {
    return build_error("element <" + element.name + "> without name");
  }
  if (element.name == "Number") return build_number(element, name);
  if (element.name == "String") return build_string(element, name);
  if (element.name == "Blob") return build_blob(element, name);
  if (element.name == "Block") return build_composite(element, name, false);
  if (element.name == "Choice") return build_composite(element, name, true);
  return build_error("unknown element <" + element.name + ">");
}

}  // namespace

PitParseResult parse_pit(std::string_view xml_text) {
  PitParseResult result;
  XmlParseResult xml = parse_xml(xml_text);
  if (!xml.ok()) {
    result.error = "XML error: " + xml.error;
    return result;
  }
  const XmlElement& root = *xml.root;
  if (root.name != "Peach") {
    result.error = "document element must be <Peach>, got <" + root.name + ">";
    return result;
  }
  for (const XmlElement* model_element : root.children_named("DataModel")) {
    const std::string name = model_element->attr("name").value_or("");
    if (name.empty()) {
      result.error = "DataModel without name";
      return result;
    }
    std::vector<Chunk> fields;
    for (const XmlElement& child : model_element->children) {
      auto built = build_chunk(child);
      if (!built.chunk) {
        result.error = "DataModel " + name + ": " + built.error;
        return result;
      }
      fields.push_back(std::move(*built.chunk));
    }
    if (fields.empty()) {
      result.error = "DataModel " + name + " has no fields";
      return result;
    }
    DataModel model(name, Chunk::block(name + ".root", std::move(fields)));
    if (auto opcode = model_element->attr("opcode")) {
      auto parsed = parse_uint(*opcode);
      if (!parsed) {
        result.error = "DataModel " + name + ": bad opcode";
        return result;
      }
      model.set_opcode(*parsed);
    }
    if (auto error = model.validate()) {
      result.error = "DataModel " + name + ": " + *error;
      return result;
    }
    result.models.add(std::move(model));
  }
  if (result.models.empty()) {
    result.error = "pit contains no DataModel";
    return result;
  }
  return result;
}

PitParseResult parse_pit_file(const std::string& path) {
  std::ifstream input(path, std::ios::binary);
  if (!input) {
    PitParseResult result;
    result.error = "cannot open pit file: " + path;
    return result;
  }
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return parse_pit(buffer.str());
}

}  // namespace icsfuzz::model
