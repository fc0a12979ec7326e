#include "util/strings.hpp"

#include <cctype>

namespace icsfuzz {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  std::uint64_t base = 10;
  if (starts_with(text, "0x") || starts_with(text, "0X")) {
    base = 16;
    text.remove_prefix(2);
    if (text.empty()) return std::nullopt;
  }
  std::uint64_t value = 0;
  for (char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
    if (digit >= base || __builtin_mul_overflow(value, base, &value) ||
        __builtin_add_overflow(value, digit, &value)) {
      return std::nullopt;
    }
  }
  return value;
}

namespace {

void set_parse_error(std::string* error, std::string_view what,
                     std::string_view text, std::string_view reason) {
  if (error == nullptr) return;
  error->assign(what);
  *error += ": ";
  *error += reason;
  *error += " ('";
  error->append(text);
  *error += "')";
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::string_view what,
                                       std::string* error) {
  const std::string_view raw = text;
  text = trim(text);
  if (text.empty()) {
    set_parse_error(error, what, raw, "expected a decimal integer, got");
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      set_parse_error(error, what, raw, "expected a decimal integer, got");
      return std::nullopt;
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      set_parse_error(error, what, raw, "value does not fit in 64 bits");
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::int64_t> parse_int(std::string_view text,
                                      std::string_view what,
                                      std::string* error) {
  const std::string_view raw = text;
  text = trim(text);
  bool negative = false;
  if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
    negative = text.front() == '-';
    text.remove_prefix(1);
  }
  // The digits must follow the sign directly: parse_u64 would trim the
  // whitespace of "- 5" away.
  const std::optional<std::uint64_t> magnitude =
      !text.empty() && text.front() >= '0' && text.front() <= '9'
          ? parse_u64(text, what, error)
          : std::nullopt;
  if (!magnitude.has_value()) {
    // parse_u64 reported against the stripped text; rewrite with the raw
    // input so the message shows what the user actually typed.
    set_parse_error(error, what, raw, "expected a decimal integer, got");
    return std::nullopt;
  }
  const std::uint64_t limit =
      negative ? (static_cast<std::uint64_t>(INT64_MAX) + 1)
               : static_cast<std::uint64_t>(INT64_MAX);
  if (*magnitude > limit) {
    set_parse_error(error, what, raw, "value does not fit in 64 bits");
    return std::nullopt;
  }
  if (!negative) return static_cast<std::int64_t>(*magnitude);
  if (*magnitude == limit) return INT64_MIN;
  return -static_cast<std::int64_t>(*magnitude);
}

std::optional<bool> parse_bool(std::string_view text) {
  const std::string lowered = to_lower(trim(text));
  if (lowered == "true" || lowered == "1") return true;
  if (lowered == "false" || lowered == "0") return false;
  return std::nullopt;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace icsfuzz
