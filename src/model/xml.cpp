#include "model/xml.hpp"

#include <cctype>

namespace icsfuzz::model {
namespace {

class XmlParser {
 public:
  explicit XmlParser(std::string_view text) : text_(text) {}

  XmlParseResult run() {
    skip_prolog();
    auto element = parse_element(1);
    if (!element) return fail();
    skip_misc();
    if (pos_ != text_.size()) return fail("trailing content after document element");
    XmlParseResult result;
    result.root = std::move(*element);
    return result;
  }

 private:
  XmlParseResult fail(std::string message = {}) {
    XmlParseResult result;
    result.error = message.empty() ? error_ : std::move(message);
    if (result.error.empty()) result.error = "malformed XML";
    result.error += " (at offset " + std::to_string(pos_) + ")";
    return result;
  }

  void set_error(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return eof() ? '\0' : text_[pos_]; }
  char take() { return eof() ? '\0' : text_[pos_++]; }

  bool consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  bool skip_comment() {
    if (!consume("<!--")) return false;
    const std::size_t end = text_.find("-->", pos_);
    if (end == std::string_view::npos) {
      set_error("unterminated comment");
      pos_ = text_.size();
      return true;
    }
    pos_ = end + 3;
    return true;
  }

  void skip_prolog() {
    skip_ws();
    if (consume("<?xml")) {
      const std::size_t end = text_.find("?>", pos_);
      pos_ = end == std::string_view::npos ? text_.size() : end + 2;
    }
    skip_misc();
  }

  void skip_misc() {
    for (;;) {
      skip_ws();
      if (!skip_comment()) return;
    }
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
           c == '.' || c == ':';
  }

  std::string parse_name() {
    std::string name;
    while (!eof() && is_name_char(peek())) name.push_back(take());
    return name;
  }

  static void append_entity(std::string& out, std::string_view entity) {
    if (entity == "lt") out.push_back('<');
    else if (entity == "gt") out.push_back('>');
    else if (entity == "amp") out.push_back('&');
    else if (entity == "quot") out.push_back('"');
    else if (entity == "apos") out.push_back('\'');
    // Unknown entities are dropped; pits do not use others.
  }

  std::string parse_quoted() {
    const char quote = take();  // caller verified ' or "
    std::string value;
    while (!eof() && peek() != quote) {
      char c = take();
      if (c == '&') {
        std::string entity;
        while (!eof() && peek() != ';') entity.push_back(take());
        if (!eof()) take();  // ';'
        append_entity(value, entity);
      } else {
        value.push_back(c);
      }
    }
    if (!eof()) take();  // closing quote
    return value;
  }

  /// Parses the element at nesting level `depth` (the document element is
  /// level 1).
  std::optional<XmlElement> parse_element(std::size_t depth) {
    skip_misc();
    if (depth > kMaxXmlDepth) {
      set_error("element nesting deeper than " + std::to_string(kMaxXmlDepth) +
                " levels");
      return std::nullopt;
    }
    if (peek() != '<' || !consume("<")) {
      set_error("expected element");
      return std::nullopt;
    }
    XmlElement element;
    element.name = parse_name();
    if (element.name.empty()) {
      set_error("empty element name");
      return std::nullopt;
    }
    // Attributes.
    for (;;) {
      skip_ws();
      if (consume("/>")) return element;
      if (consume(">")) break;
      std::string key = parse_name();
      if (key.empty()) {
        set_error("bad attribute in <" + element.name + ">");
        return std::nullopt;
      }
      skip_ws();
      if (!consume("=")) {
        set_error("attribute without value: " + key);
        return std::nullopt;
      }
      skip_ws();
      if (peek() != '"' && peek() != '\'') {
        set_error("unquoted attribute value: " + key);
        return std::nullopt;
      }
      element.attributes.emplace_back(std::move(key), parse_quoted());
    }
    // Content.
    for (;;) {
      if (eof()) {
        set_error("unterminated element <" + element.name + ">");
        return std::nullopt;
      }
      if (text_.substr(pos_, 4) == "<!--") {
        skip_comment();
        continue;
      }
      if (consume("</")) {
        const std::string closing = parse_name();
        skip_ws();
        if (!consume(">") || closing != element.name) {
          set_error("mismatched close tag for <" + element.name + ">");
          return std::nullopt;
        }
        return element;
      }
      if (peek() == '<') {
        auto child = parse_element(depth + 1);
        if (!child) return std::nullopt;
        element.children.push_back(std::move(*child));
        continue;
      }
      // Character data.
      char c = take();
      if (c == '&') {
        std::string entity;
        while (!eof() && peek() != ';') entity.push_back(take());
        if (!eof()) take();
        append_entity(element.text, entity);
      } else {
        element.text.push_back(c);
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<std::string> XmlElement::attr(const std::string& key) const {
  for (const auto& [name, value] : attributes) {
    if (name == key) return value;
  }
  return std::nullopt;
}

std::vector<const XmlElement*> XmlElement::children_named(
    const std::string& name) const {
  std::vector<const XmlElement*> out;
  for (const XmlElement& child : children) {
    if (child.name == name) out.push_back(&child);
  }
  return out;
}

const XmlElement* XmlElement::first_child(const std::string& name) const {
  for (const XmlElement& child : children) {
    if (child.name == name) return &child;
  }
  return nullptr;
}

XmlParseResult parse_xml(std::string_view text) {
  return XmlParser(text).run();
}

}  // namespace icsfuzz::model
