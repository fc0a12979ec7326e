#include "session/sequencer.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "model/xml.hpp"
#include "session/framing.hpp"
#include "util/strings.hpp"

namespace icsfuzz::session {

namespace {

// IEC 104 APCI control bytes (start 0x68, length 4, control octets 1-4).
constexpr std::uint8_t kStartDtAct[] = {0x68, 0x04, 0x07, 0x00, 0x00, 0x00};
constexpr std::uint8_t kStopDtAct[] = {0x68, 0x04, 0x13, 0x00, 0x00, 0x00};
constexpr std::uint8_t kTestFrAct[] = {0x68, 0x04, 0x43, 0x00, 0x00, 0x00};

SessionStep literal_step(const std::uint8_t* data, std::size_t size) {
  SessionStep step;
  step.kind = SessionStep::Kind::kLiteral;
  step.literal.assign(data, data + size);
  return step;
}

SessionStep model_step(std::string name, std::uint32_t min_repeat,
                       std::uint32_t max_repeat) {
  SessionStep step;
  step.kind = SessionStep::Kind::kModel;
  step.model = std::move(name);
  step.min_repeat = min_repeat;
  step.max_repeat = max_repeat;
  return step;
}

bool parse_hex_attr(const std::string& text, Bytes& out) {
  out.clear();
  int nibble = -1;
  for (const char c : text) {
    int value;
    if (c >= '0' && c <= '9') {
      value = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      value = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      value = c - 'A' + 10;
    } else if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      continue;
    } else {
      return false;
    }
    if (nibble < 0) {
      nibble = value;
    } else {
      out.push_back(static_cast<std::uint8_t>((nibble << 4) | value));
      nibble = -1;
    }
  }
  return nibble < 0;  // odd digit counts are malformed
}

/// Messages a generated session may hold — far below the framing layer's
/// kMaxSessionMessages so sequence mutations (duplication) cannot push a
/// stream over the canonical-split cap.
constexpr std::size_t kMaxGeneratedMessages = 64;

}  // namespace

std::vector<SessionTemplate> builtin_session_templates(
    std::string_view project) {
  std::vector<SessionTemplate> out;
  const bool iec104 = project == "IEC104" || project == "lib60870";
  if (iec104) {
    // The canonical stateful flow: activate the link, drive ASDUs into the
    // post-STARTDT handler, deactivate. Without the literal STARTDT_act
    // the server drops every I-frame on the floor (started_ gate).
    SessionTemplate full;
    full.name = "startdt-asdu";
    full.project = std::string(project);
    full.steps.push_back(literal_step(kStartDtAct, sizeof kStartDtAct));
    full.steps.push_back(model_step("", 1, 3));
    full.steps.push_back(literal_step(kStopDtAct, sizeof kStopDtAct));
    out.push_back(std::move(full));

    SessionTemplate probe;
    probe.name = "startdt-testfr";
    probe.project = std::string(project);
    probe.steps.push_back(literal_step(kStartDtAct, sizeof kStartDtAct));
    probe.steps.push_back(literal_step(kTestFrAct, sizeof kTestFrAct));
    probe.steps.push_back(model_step("", 1, 2));
    out.push_back(std::move(probe));
  }
  if (project == "libiec61850") {
    // MMS association first, then reads/writes against the open session.
    SessionTemplate initiate;
    initiate.name = "initiate-requests";
    initiate.project = std::string(project);
    initiate.steps.push_back(model_step("MmsAssociate", 1, 1));
    initiate.steps.push_back(model_step("", 1, 3));
    out.push_back(std::move(initiate));
  }
  // Every project gets the generic multi-message template (for IEC 104 it
  // doubles as the "no STARTDT" negative flow).
  SessionTemplate generic;
  generic.name = "generic-sequence";
  generic.project = std::string(project);
  generic.steps.push_back(model_step("", 1, 3));
  out.push_back(std::move(generic));
  return out;
}

bool parse_session_templates(std::string_view xml_text,
                             std::vector<SessionTemplate>& out,
                             std::string& error) {
  const model::XmlParseResult doc = model::parse_xml(xml_text);
  if (!doc.ok()) {
    error = doc.error;
    return false;
  }
  if (doc.root->name != "Sessions") {
    error = "session pit root element must be <Sessions>, got <" +
            doc.root->name + ">";
    return false;
  }
  const std::string project = doc.root->attr("project").value_or("");
  for (const model::XmlElement* session : doc.root->children_named("Session")) {
    SessionTemplate tpl;
    tpl.project = project;
    const std::optional<std::string> name = session->attr("name");
    if (!name || name->empty()) {
      error = "<Session> requires a non-empty name attribute";
      return false;
    }
    tpl.name = *name;
    for (const model::XmlElement& child : session->children) {
      if (child.name == "Literal") {
        const std::optional<std::string> hex = child.attr("hex");
        SessionStep step;
        step.kind = SessionStep::Kind::kLiteral;
        if (!hex || !parse_hex_attr(*hex, step.literal)) {
          error = "<Literal> in session '" + tpl.name +
                  "' requires a hex attribute of hex byte pairs";
          return false;
        }
        tpl.steps.push_back(std::move(step));
      } else if (child.name == "Model") {
        SessionStep step;
        step.kind = SessionStep::Kind::kModel;
        step.model = child.attr("name").value_or("");
        // Strict decimal counts that fit 32 bits.
        const auto repeat = [&](const char* attr, std::uint32_t& out) {
          std::string detail;
          const std::optional<std::uint64_t> value =
              parse_u64(child.attr(attr).value_or("1"), attr, &detail);
          if (value && *value > UINT32_MAX) {
            detail = std::string(attr) + ": value does not fit in 32 bits";
          } else if (value) {
            out = static_cast<std::uint32_t>(*value);
            return true;
          }
          error = "<Model> in session '" + tpl.name + "': " + detail;
          return false;
        };
        if (!repeat("min", step.min_repeat) ||
            !repeat("max", step.max_repeat)) {
          return false;
        }
        if (step.min_repeat == 0 || step.max_repeat < step.min_repeat) {
          error = "<Model> in session '" + tpl.name +
                  "' requires 1 <= min <= max";
          return false;
        }
        tpl.steps.push_back(std::move(step));
      } else {
        error = "unknown session step <" + child.name + "> in session '" +
                tpl.name + "'";
        return false;
      }
    }
    if (tpl.steps.empty()) {
      error = "session '" + tpl.name + "' has no steps";
      return false;
    }
    out.push_back(std::move(tpl));
  }
  if (out.empty()) {
    error = "session pit defines no <Session> elements";
    return false;
  }
  return true;
}

bool parse_session_templates_file(const std::string& path,
                                  std::vector<SessionTemplate>& out,
                                  std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_session_templates(text.str(), out, error);
}

SessionSequencer::SessionSequencer(SequencerConfig config,
                                   const model::DataModelSet& models,
                                   const fuzz::ModelInstantiator& instantiator)
    : config_(std::move(config)),
      models_(models),
      instantiator_(instantiator),
      templates_(config_.templates.empty()
                     ? builtin_session_templates(config_.project)
                     : config_.templates) {}

void SessionSequencer::instantiate_step(const SessionStep& step, Rng& rng) {
  if (step.kind == SessionStep::Kind::kLiteral) {
    if (messages_.size() < kMaxGeneratedMessages) {
      messages_.push_back(step.literal);
    }
    return;
  }
  const std::uint64_t repeats = rng.between(step.min_repeat, step.max_repeat);
  for (std::uint64_t r = 0; r < repeats; ++r) {
    if (messages_.size() >= kMaxGeneratedMessages) return;
    const model::DataModel* model =
        step.model.empty() ? nullptr : models_.find(step.model);
    if (model == nullptr) {
      // Unknown or unspecified model: fall back to a random one, so
      // templates survive pit sets that lack a named choreography model.
      model = &models_.models()[rng.index(models_.size())];
    }
    Bytes message;
    instantiator_.generate_into(*model, rng, message);
    if (rng.chance(config_.mutate_message_pct, 100)) {
      instantiator_.mutators().mutate_in_place(message, rng);
    }
    messages_.push_back(std::move(message));
  }
}

void SessionSequencer::mutate_sequence(Rng& rng) {
  const std::uint64_t rounds = rng.between(1, 2);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (messages_.empty()) return;
    switch (rng.below(4)) {
      case 0:  // drop a message
        if (messages_.size() > 1) {
          messages_.erase(messages_.begin() +
                          static_cast<std::ptrdiff_t>(
                              rng.index(messages_.size())));
        }
        break;
      case 1: {  // duplicate a message in place
        if (messages_.size() >= kMaxGeneratedMessages) break;
        const std::size_t i = rng.index(messages_.size());
        messages_.insert(messages_.begin() + static_cast<std::ptrdiff_t>(i),
                         messages_[i]);
        break;
      }
      case 2: {  // reorder: swap two messages
        if (messages_.size() > 1) {
          const std::size_t a = rng.index(messages_.size());
          const std::size_t b = rng.index(messages_.size());
          std::swap(messages_[a], messages_[b]);
        }
        break;
      }
      default: {  // truncate the stream mid-message
        const std::size_t i = rng.index(messages_.size());
        Bytes& victim = messages_[i];
        if (!victim.empty()) {
          victim.resize(rng.index(victim.size()));
        }
        // Everything after the torn message would re-frame arbitrarily;
        // ending the stream here exercises the residue path instead.
        messages_.resize(i + 1);
        break;
      }
    }
  }
}

void SessionSequencer::apply_iec104_fixup() {
  if (config_.framing != Framing::kApci) return;
  // The server's window check demands I-frame N(S) values arrive in
  // exactly the order 0,1,2,... and acknowledges nothing back mid-session,
  // so N(R) stays 0. Rewriting the four sequence octets of every I-format
  // APCI (control octet LSB 0) is the session analogue of File Fixup.
  std::uint16_t send_seq = 0;
  for (Bytes& message : messages_) {
    if (message.size() < 6 || message[0] != 0x68) continue;
    if ((message[2] & 0x01) != 0) continue;  // U or S format
    message[2] = static_cast<std::uint8_t>((send_seq << 1) & 0xFE);
    message[3] = static_cast<std::uint8_t>(send_seq >> 7);
    message[4] = 0;
    message[5] = 0;
    ++send_seq;
  }
}

void SessionSequencer::serialize_into(Bytes& out) const {
  out.clear();
  std::size_t total = 0;
  for (const Bytes& message : messages_) total += message.size();
  out.reserve(total);
  for (const Bytes& message : messages_) append(out, ByteSpan(message));
  if (out.size() > kMaxSessionStreamBytes) out.resize(kMaxSessionStreamBytes);
}

void SessionSequencer::generate_into(Rng& rng, Bytes& out) {
  messages_.clear();
  const SessionTemplate& tpl = templates_[rng.index(templates_.size())];
  for (const SessionStep& step : tpl.steps) instantiate_step(step, rng);
  if (rng.chance(config_.sequence_mutation_pct, 100)) mutate_sequence(rng);
  if (rng.chance(config_.fixup_pct, 100)) apply_iec104_fixup();
  serialize_into(out);
}

void SessionSequencer::mutate_stream_into(ByteSpan stream, Rng& rng,
                                          Bytes& out) {
  std::vector<MessageRange> ranges;
  split_stream(config_.framing, stream, ranges);
  messages_.clear();
  messages_.reserve(ranges.size());
  for (const MessageRange& range : ranges) {
    const std::uint8_t* data = stream.data() + range.offset;
    messages_.emplace_back(data, data + range.length);
  }
  if (!messages_.empty() && rng.chance(config_.mutate_message_pct, 100)) {
    Bytes& victim = messages_[rng.index(messages_.size())];
    instantiator_.mutators().mutate_in_place(victim, rng);
  }
  mutate_sequence(rng);
  if (rng.chance(config_.fixup_pct, 100)) apply_iec104_fixup();
  serialize_into(out);
}

}  // namespace icsfuzz::session
