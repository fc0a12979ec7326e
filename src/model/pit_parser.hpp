// Pit parser — loads a format specification written in a Peach-Pit-style
// XML dialect into a DataModelSet.
//
// Supported dialect (a faithful subset of Peach 3 Pit syntax):
//
//   <Peach>
//     <DataModel name="WriteSingleRegister" opcode="6">
//       <Number name="TransactionId" size="16" endian="big" value="1"/>
//       <Number name="Protocol"      size="16" token="true" value="0"/>
//       <Number name="Length" size="16">
//         <Relation type="sizeof" of="Body" bias="1"/>
//       </Number>
//       <Block name="Body">
//         <Number name="FunctionCode" size="8" token="true" value="6"/>
//         <Number name="Address" size="16" tag="reg-addr"/>
//         <Blob name="Payload" length="4"/>
//       </Block>
//       <Number name="Crc" size="32">
//         <Fixup class="Crc32Fixup" ref="Body"/>
//       </Number>
//     </DataModel>
//   </Peach>
//
// Notes vs real Peach: `size` on Number is in *bits* (8/16/24/32/64) as in
// Peach; String/Blob `length` is in bytes. `values` gives a comma-separated
// legal-value list. <Choice> wraps alternatives. `tag` sets the semantic
// rule tag that the puzzle corpus keys on. Out-of-range sizes, units and
// biases are rejected, never clamped.
#pragma once

#include <cstddef>
#include <string>

#include "model/data_model.hpp"

namespace icsfuzz::model {

/// The largest String/Blob `length` or `maxGenerated` a pit may declare
/// (a whole session stream's 1 MiB, far above any shipped pit).
inline constexpr std::size_t kMaxPitFieldBytes = std::size_t{1} << 20;

struct PitParseResult {
  DataModelSet models;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses a pit document from memory.
PitParseResult parse_pit(std::string_view xml_text);

/// Parses a pit file from disk.
PitParseResult parse_pit_file(const std::string& path);

}  // namespace icsfuzz::model
