// Self-fuzzing harness for the XML pit parser: model::parse_pit and
// session::parse_session_templates, the two readers of user-written model
// files (both go through model::parse_xml).
//
// A pit is the only model source, and a session pit names the models a
// stateful campaign sends, so a malformed file must come back as an error,
// never as a crash, a hang or a model that aborts the first generation.
// This harness drives both readers with the fuzzer's own byte mutators
// (the operators Strategy::ByteMutation stacks), in the shape of
// test_selffuzz_json.cpp: the pool starts with every shipped pits/*.xml,
// the two session pits included, and each round takes a pool entry and
//   * stacks 1-8 mutations on the whole document or on one line of it,
//   * or rewrites one numeric attribute value to a boundary number (the
//     sizes, units and biases the model layer turns into allocations,
//     divisors and signed arithmetic),
//   * or repeats one line many times (an opening tag repeated becomes a
//     deep nesting, up to far past the parser's depth limit),
// sometimes truncating the document or dropping in a line from another
// one, and keeps some accepted inputs as new seeds.
//
// For every input:
//   * parse_pit and parse_session_templates return (ASan in the CI
//     fault-stress lane catches what a crash would be);
//   * for every pit parse_pit accepts, default_instance and a few
//     ModelInstantiator::generate calls per model neither throw nor abort.
//
// The budget is fixed; the seed is fixed too unless ICSFUZZ_STRESS_SEED is
// set, which the CI fault-stress lane does with a fresh value per round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "fuzzer/instantiator.hpp"
#include "model/instantiation.hpp"
#include "model/pit_parser.hpp"
#include "mutation/mutator.hpp"
#include "session/sequencer.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

namespace fs = std::filesystem;

constexpr int kRounds = 3000;
constexpr std::size_t kPoolCap = 64;
constexpr int kGenerationsPerModel = 3;
/// How often a repeated opening tag nests: far past model::kMaxXmlDepth,
/// and deep enough to overflow an 8 MiB stack in an unbounded parser.
constexpr std::uint64_t kDeepRepeats = 100000;

/// Attribute values at the edges of what the model layer accepts.
const char* const kBoundaryValues[] = {
    "0",
    "1",
    "-1",
    "+1",
    "255",
    "65536",
    "1048576",
    "1048577",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "0xffffffffffffffff",
    "0x",
    "",
    "x",
};

/// FNV-1a of ICSFUZZ_STRESS_SEED, or a fixed seed when it is unset.
std::uint64_t harness_seed() {
  const char* stress = std::getenv("ICSFUZZ_STRESS_SEED");
  if (stress == nullptr) return 0x9170F022;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = stress; *c != '\0'; ++c) {
    hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
  }
  return hash;
}

std::string to_text(const Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

/// Every shipped pit, in name order.
std::vector<Bytes> shipped_pits() {
  std::vector<fs::path> paths;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(ICSFUZZ_PITS_DIR)) {
    if (entry.path().extension() == ".xml") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Bytes> pits;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    pits.emplace_back(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  }
  return pits;
}

/// Byte ranges [begin, end) of the lines of `doc` (newline included).
std::vector<std::pair<std::size_t, std::size_t>> lines_of(const Bytes& doc) {
  std::vector<std::pair<std::size_t, std::size_t>> lines;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i] == '\n') {
      lines.emplace_back(begin, i + 1);
      begin = i + 1;
    }
  }
  if (begin < doc.size()) lines.emplace_back(begin, doc.size());
  return lines;
}

/// Whether `value` reads as a number: an optional sign, then digits or a
/// 0x-prefixed hex string.
bool numeric(const Bytes& doc, std::size_t begin, std::size_t end) {
  if (begin < end && (doc[begin] == '-' || doc[begin] == '+')) ++begin;
  if (begin == end) return false;
  for (std::size_t i = begin; i < end; ++i) {
    if (std::isxdigit(doc[i]) == 0 && doc[i] != 'x' && doc[i] != 'X') {
      return false;
    }
  }
  return true;
}

/// Byte ranges [begin, end) of the numeric quoted attribute values of
/// `doc`: the sizes, lengths, units, biases and values of its fields.
std::vector<std::pair<std::size_t, std::size_t>> numeric_values(
    const Bytes& doc) {
  std::vector<std::pair<std::size_t, std::size_t>> values;
  for (std::size_t i = 0; i + 1 < doc.size(); ++i) {
    if (doc[i] != '=' || (doc[i + 1] != '"' && doc[i + 1] != '\'')) continue;
    const auto close =
        std::find(doc.begin() + static_cast<std::ptrdiff_t>(i + 2), doc.end(),
                  doc[i + 1]);
    if (close == doc.end()) break;
    const auto end = static_cast<std::size_t>(close - doc.begin());
    if (numeric(doc, i + 2, end)) values.emplace_back(i + 2, end);
    i = end;
  }
  return values;
}

/// Whether the line opens an element it does not close: repeated, it nests.
bool opens_element(const Bytes& line) {
  const std::string text = to_text(line);
  const std::size_t open = text.find('<');
  const std::size_t close = text.rfind('>');
  return open != std::string::npos && close != std::string::npos &&
         open + 1 < text.size() && text[open + 1] != '/' &&
         text[open + 1] != '!' && text[open + 1] != '?' &&
         text[close - 1] != '/';
}

void replace_range(Bytes& doc, std::pair<std::size_t, std::size_t> range,
                   const Bytes& with) {
  Bytes out(doc.begin(), doc.begin() + static_cast<std::ptrdiff_t>(range.first));
  append(out, ByteSpan(with));
  out.insert(out.end(), doc.begin() + static_cast<std::ptrdiff_t>(range.second),
             doc.end());
  doc = std::move(out);
}

/// One harness input: a mutation stack on the whole of `seed` or one line
/// of it, a boundary attribute value, or a repeated line, plus the
/// occasional truncation or foreign line.
Bytes mutate_document(const Bytes& seed, const std::vector<Bytes>& pool,
                      const mutation::MutatorSuite& mutators, Rng& rng) {
  Bytes doc = seed;
  const auto lines = lines_of(doc);
  const auto values = numeric_values(doc);
  const std::uint64_t mode = rng.below(8);
  if ((mode <= 2) && !values.empty()) {
    const char* value = kBoundaryValues[rng.index(std::size(kBoundaryValues))];
    replace_range(doc, rng.pick(values),
                  Bytes(value, value + std::char_traits<char>::length(value)));
  } else if (mode == 3 && !lines.empty()) {
    const auto range = rng.pick(lines);
    const Bytes line(doc.begin() + static_cast<std::ptrdiff_t>(range.first),
                     doc.begin() + static_cast<std::ptrdiff_t>(range.second));
    const std::uint64_t repeats = opens_element(line) && rng.chance(1, 4)
                                      ? kDeepRepeats
                                      : rng.between(2, 64);
    Bytes repeated;
    repeated.reserve(line.size() * repeats);
    for (std::uint64_t i = 0; i < repeats; ++i) append(repeated, ByteSpan(line));
    replace_range(doc, range, repeated);
  } else if (mode == 4 || lines.empty()) {
    const std::uint64_t stack = rng.between(1, 8);
    for (std::uint64_t i = 0; i < stack; ++i) mutators.mutate_in_place(doc, rng);
  } else {
    const auto range = rng.pick(lines);
    Bytes line(doc.begin() + static_cast<std::ptrdiff_t>(range.first),
               doc.begin() + static_cast<std::ptrdiff_t>(range.second));
    const std::uint64_t stack = rng.between(1, 8);
    for (std::uint64_t i = 0; i < stack; ++i) mutators.mutate_in_place(line, rng);
    replace_range(doc, range, line);
  }
  switch (rng.below(8)) {
    case 0:  // torn file: the document stops anywhere
      doc.resize(rng.below(doc.size() + 1));
      break;
    case 1: {  // a line from another document, dropped in anywhere
      const Bytes& donor = rng.pick(pool);
      const auto donor_lines = lines_of(donor);
      const auto target_lines = lines_of(doc);
      if (!donor_lines.empty() && !target_lines.empty()) {
        const auto [from, to] = rng.pick(donor_lines);
        const std::size_t at = rng.pick(target_lines).first;
        doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(at),
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.begin() + static_cast<std::ptrdiff_t>(to));
      }
      break;
    }
    default:
      break;
  }
  return doc;
}

TEST(SelfFuzzPit, MutatedPitsNeverCrashTheParsersOrTheFirstGeneration) {
  const std::uint64_t seed = harness_seed();
  const mutation::MutatorSuite mutators;
  Rng rng(seed);
  std::vector<Bytes> pool = shipped_pits();
  // The seeds are the shipped pits: each one is a model pit or a session
  // pit, and both kinds are there.
  std::size_t model_pits = 0;
  std::size_t session_pits = 0;
  for (const Bytes& pit : pool) {
    std::vector<session::SessionTemplate> templates;
    std::string error;
    if (model::parse_pit(to_text(pit)).ok()) ++model_pits;
    if (session::parse_session_templates(to_text(pit), templates, error)) {
      ++session_pits;
    }
  }
  ASSERT_EQ(model_pits + session_pits, pool.size());
  ASSERT_GE(session_pits, 2u);

  std::size_t accepted_pits = 0;
  std::size_t accepted_sessions = 0;
  std::size_t models_generated = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Bytes input = mutate_document(rng.pick(pool), pool, mutators, rng);
    const std::string text = to_text(input);
    const std::string label =
        "seed=" + std::to_string(seed) + " round=" + std::to_string(round);

    std::vector<session::SessionTemplate> templates;
    std::string error;
    if (session::parse_session_templates(text, templates, error)) {
      ++accepted_sessions;
    }

    const model::PitParseResult pit = model::parse_pit(text);
    if (!pit.ok()) continue;
    ++accepted_pits;
    // A fresh instantiator per pit: its per-model scratch is keyed on the
    // models, which die with this round.
    const fuzz::ModelInstantiator instantiator;
    Rng generation(seed ^ static_cast<std::uint64_t>(round));
    for (const model::DataModel& model : pit.models.models()) {
      EXPECT_NO_THROW({
        (void)model::default_instance(model).serialize();
        for (int i = 0; i < kGenerationsPerModel; ++i) {
          (void)instantiator.generate(model, generation);
        }
      }) << label
         << ": model " << model.name();
      ++models_generated;
    }
    if (rng.chance(1, 2) && pool.size() < kPoolCap &&
        input.size() < (std::size_t{1} << 16)) {
      pool.push_back(input);
    }
  }
  // The mutators must reach the accepting side of both readers.
  EXPECT_GT(accepted_pits, static_cast<std::size_t>(kRounds / 20));
  EXPECT_GT(accepted_sessions, 0u);
  EXPECT_GT(models_generated, accepted_pits);
}

}  // namespace
}  // namespace icsfuzz
