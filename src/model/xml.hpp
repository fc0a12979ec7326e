// Minimal XML document-object model — just enough to read Peach-Pit-style
// format specifications (elements, attributes, nesting, comments, XML
// declarations; no namespaces, entities beyond the five predefined ones, or
// CDATA).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace icsfuzz::model {

struct XmlElement {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<XmlElement> children;
  std::string text;  // concatenated character data directly inside this element

  /// Attribute lookup (first match); nullopt when absent.
  [[nodiscard]] std::optional<std::string> attr(const std::string& key) const;

  /// All direct children with the given element name.
  [[nodiscard]] std::vector<const XmlElement*> children_named(
      const std::string& name) const;

  /// First direct child with the given name, or nullptr.
  [[nodiscard]] const XmlElement* first_child(const std::string& name) const;
};

/// The deepest element nesting parse_xml accepts; the document element is
/// level 1. Far above any shipped pit, it bounds the parser's recursion
/// (and the tree's) on user files.
inline constexpr std::size_t kMaxXmlDepth = 256;

/// Parse result: the document element, or an error with offset context.
struct XmlParseResult {
  std::optional<XmlElement> root;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const { return root.has_value(); }
};

XmlParseResult parse_xml(std::string_view text);

}  // namespace icsfuzz::model
