// Session sequencer — generates and mutates *sequences* of protocol
// messages from session templates, the session layer's counterpart to the
// per-packet ModelInstantiator.
//
// A template is an ordered list of steps: literal byte strings (protocol
// choreography like IEC 104 STARTDT_act that must arrive verbatim for the
// server's state machine to advance) and model steps instantiated fresh
// from the loaded DataModelSet each time. On top of per-message byte
// mutation, the sequencer mutates the *sequence itself* — drop, duplicate,
// reorder, truncate-mid-message — which is what reaches the orderings and
// torn streams single-message fuzzing cannot express. The serialized
// session stream is one ordinary packet to everything downstream
// (dedup, corpus, retained seeds, checkpointing, distillation).
//
// The sequencer draws from the built-in per-project templates
// (builtin_session_templates). The session pit files
// (pits/iec104_session.xml, pits/mms_session.xml) hold the same
// choreographies, read by parse_session_templates; tests/test_session.cpp
// keeps the two equal.
#pragma once

#include <string>
#include <vector>

#include "fuzzer/instantiator.hpp"
#include "model/data_model.hpp"
#include "session/session_types.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz::session {

/// One step of a session template.
struct SessionStep {
  enum class Kind : std::uint8_t {
    kLiteral,  ///< fixed bytes, sent verbatim
    kModel,    ///< instantiate a data model (empty name = random model)
  };
  Kind kind = Kind::kModel;
  Bytes literal;
  std::string model;  // kModel: model name ("" = choose at random)
  /// kModel: the step emits between min_repeat and max_repeat messages.
  std::uint32_t min_repeat = 1;
  std::uint32_t max_repeat = 1;
};

struct SessionTemplate {
  std::string name;
  std::string project;  // registry project this choreography targets
  std::vector<SessionStep> steps;
};

struct SequencerConfig {
  /// Master switch: the Fuzzer only builds/consults a sequencer when set.
  bool enabled = false;
  Framing framing = Framing::kNone;
  /// Registry project the built-in templates are chosen for.
  std::string project;
};

/// Built-in session choreographies for a registry project: the IEC 104
/// STARTDT -> ASDU -> STOPDT flow for the 104-framed stacks, an
/// initiate -> requests flow for MMS, and a generic multi-message template
/// for everything else.
std::vector<SessionTemplate> builtin_session_templates(
    std::string_view project);

/// Parses session templates from a session pit document:
///
///   <Sessions project="IEC104">
///     <Session name="startdt-asdu">
///       <Literal hex="68 04 07 00 00 00"/>
///       <Model name="Interrogation" min="1" max="3"/>
///       <Model/>                      <!-- random model, once -->
///       <Literal hex="680413000000"/>
///     </Session>
///   </Sessions>
///
/// Returns false and fills `error` on malformed documents.
bool parse_session_templates(std::string_view xml_text,
                             std::vector<SessionTemplate>& out,
                             std::string& error);

/// File variant of parse_session_templates.
bool parse_session_templates_file(const std::string& path,
                                  std::vector<SessionTemplate>& out,
                                  std::string& error);

class SessionSequencer {
 public:
  SessionSequencer(SequencerConfig config, const model::DataModelSet& models,
                   const fuzz::ModelInstantiator& instantiator);

  /// Generates one session stream from a randomly chosen template into
  /// `out` (cleared first, capacity reused).
  void generate_into(Rng& rng, Bytes& out);

  /// Mutates an existing session stream (e.g. a retained valuable seed):
  /// re-splits it into its canonical message list, applies one or two
  /// sequence mutations plus per-message byte mutation, and reserializes.
  void mutate_stream_into(ByteSpan stream, Rng& rng, Bytes& out);

 private:
  void instantiate_step(const SessionStep& step, Rng& rng);
  void mutate_sequence(Rng& rng);
  void apply_iec104_fixup();
  void serialize_into(Bytes& out) const;

  SequencerConfig config_;
  const model::DataModelSet& models_;
  const fuzz::ModelInstantiator& instantiator_;
  std::vector<SessionTemplate> templates_;
  /// Message list under construction (reused across calls).
  std::vector<Bytes> messages_;
};

}  // namespace icsfuzz::session
