// Differential oracle for the generators' File Fixup and serialization.
//
// model::TreeBuilder runs File Fixup and serialization over the leaf order
// it records while it builds (prefix sums for relation sizes, leaf runs for
// checksum inputs, one copy of the leaves for the packet). The tree-walking
// apply_constraints(InsTree&) plus InsNode::serialize is the reference: on
// the same pre-fixup tree, both must rewrite the same fields and produce
// the same bytes, leaf for leaf. Covered here:
//   * both generators (ModelInstantiator, and SemanticGenerator's
//     generate_into and generate_batch over a cracked puzzle corpus) on
//     every built-in pit and every shipped pits/*.xml, over many RNG
//     seeds: a generator with File Fixup is compared against the reference
//     applied to the tree its fixup-less twin built from the same seed;
//   * the cached default rebuild (TreeBuilder::rebuild_defaults) on every
//     model of every pit: each packet restores the recorded defaults over
//     leaves the previous packet perturbed to other sizes, and must equal
//     a fresh write_default walk perturbed the same way, before and after
//     File Fixup, and the reference;
//   * hand-built models for the edge cases: nested relations, a Choice
//     whose unselected alternative holds a relation target (also rebuilt
//     through rebuild_defaults, which must keep walking it), a checksum
//     whose ref holds another checksum, and a relation field stored at a
//     width other than its spec (its rewrite moves every later measure).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzzer/cracker.hpp"
#include "fuzzer/instantiator.hpp"
#include "fuzzer/semantic_gen.hpp"
#include "model/instantiation.hpp"
#include "model/pit_parser.hpp"
#include "mutation/mutator.hpp"
#include "pits/pits.hpp"

namespace icsfuzz {
namespace {

using model::Chunk;
using model::DataModel;
using model::DataModelSet;
using model::Fixup;
using model::FixupKind;
using model::InsNode;
using model::InsTree;
using model::NumberSpec;
using model::Relation;
using model::RelationKind;
using model::TreeBuilder;

constexpr std::uint64_t kSeeds = 100;
constexpr int kPacketsPerSeed = 25;

NumberSpec uint_spec(std::size_t width) {
  NumberSpec spec;
  spec.width = width;
  return spec;
}

void collect_leaves(const InsNode& node, std::vector<const InsNode*>& out) {
  if (node.rule != nullptr && node.rule->is_leaf()) {
    out.push_back(&node);
    return;
  }
  for (const InsNode& child : node.children) collect_leaves(child, out);
}

/// The reference File Fixup and serialization of `tree` (a copy).
struct Reference {
  InsTree tree;
  std::size_t rewritten = 0;
  Bytes packet;

  explicit Reference(InsTree unfixed) : tree(std::move(unfixed)) {
    rewritten = model::apply_constraints(tree);
    packet = tree.serialize();
  }
};

/// Compares the builder's state, File Fixup already applied, with the
/// reference: the same packet, and the same bytes leaf by leaf, in the
/// same (wire) order.
void expect_builder_matches(const TreeBuilder& builder,
                            const Reference& reference,
                            const std::string& what) {
  ASSERT_EQ(builder.serialize(), reference.packet) << what;
  std::vector<const InsNode*> leaves;
  collect_leaves(reference.tree.root, leaves);
  ASSERT_EQ(builder.leaves().size(), leaves.size()) << what;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    ASSERT_EQ(builder.leaves()[i]->rule, leaves[i]->rule) << what;
    ASSERT_EQ(builder.leaves()[i]->content, leaves[i]->content)
        << what << " leaf " << leaves[i]->rule->name();
  }
}

/// File Fixup on a freshly rebuilt builder against the reference on a copy
/// of the same tree: same rewrite count, same bytes.
void expect_fixup_matches_reference(TreeBuilder& builder,
                                    const std::string& what) {
  const Reference reference(builder.tree());
  ASSERT_EQ(builder.apply_constraints(), reference.rewritten) << what;
  expect_builder_matches(builder, reference, what);
}

/// Every built-in pit, then every shipped pits/*.xml data-model pit (the
/// *_session.xml files hold session templates, not data models).
std::vector<std::pair<std::string, DataModelSet>> all_pits() {
  std::vector<std::pair<std::string, DataModelSet>> pits;
  for (const std::string& project : pits::all_project_names()) {
    pits.emplace_back(project, pits::pit_for_project(project));
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(ICSFUZZ_PITS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".xml" &&
        name.find("_session") == std::string::npos) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    model::PitParseResult parsed = model::parse_pit_file(file.string());
    EXPECT_TRUE(parsed.ok()) << file << ": " << parsed.error;
    pits.emplace_back(file.filename().string(), std::move(parsed.models));
  }
  return pits;
}

/// A puzzle corpus cracked from the pit's own generated packets, so the
/// semantic generator has donors at most free leaves.
fuzz::PuzzleCorpus cracked_corpus(const DataModelSet& models) {
  fuzz::PuzzleCorpus corpus;
  const fuzz::ModelInstantiator instantiator;
  const fuzz::FileCracker cracker;
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 300; ++i) {
    const Bytes packet =
        instantiator.generate(models.at(rng.index(models.size())), rng);
    cracker.crack(models, packet, corpus, rng);
  }
  return corpus;
}

TEST(FixupDifferential, PitsCoverEveryBuiltinAndShippedPit) {
  const auto pits = all_pits();
  EXPECT_GE(pits.size(), pits::all_project_names().size() + 7);
  for (const auto& [name, models] : pits) EXPECT_FALSE(models.empty()) << name;
}

TEST(FixupDifferential, InstantiatorMatchesReferenceOnEveryPit) {
  for (const auto& [name, models] : all_pits()) {
    // The twins share nothing but the seed: one generates with File Fixup,
    // the other leaves its tree unfixed for the reference.
    const fuzz::ModelInstantiator generator;
    const fuzz::ModelInstantiator unfixed;
    Bytes packet;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Rng rng(seed);
      Rng twin_rng(seed);
      for (int i = 0; i < kPacketsPerSeed; ++i) {
        const DataModel& model = models.at(rng.index(models.size()));
        twin_rng.index(models.size());
        generator.generate_into(model, rng, packet);
        const Reference reference(unfixed.rebuild(model, twin_rng).tree());
        const std::string what = name + "/" + model.name() + " seed " +
                                 std::to_string(seed) + " packet " +
                                 std::to_string(i);
        ASSERT_EQ(packet, reference.packet) << what;
        expect_builder_matches(generator.tree_for(model), reference, what);
      }
    }
  }
}

TEST(FixupDifferential, SemanticGeneratorMatchesReferenceOnEveryPit) {
  fuzz::SemanticGenConfig fixed_config;
  fixed_config.max_batch = 1;  // every batch packet is the one compared
  fuzz::SemanticGenConfig unfixed_config = fixed_config;
  unfixed_config.apply_file_fixup = false;
  for (const auto& [name, models] : all_pits()) {
    const fuzz::PuzzleCorpus corpus = cracked_corpus(models);
    ASSERT_FALSE(corpus.empty()) << name;
    const fuzz::SemanticGenerator generator(fixed_config, {});
    const fuzz::SemanticGenerator unfixed(unfixed_config, {});
    Bytes packet;
    Bytes unfixed_packet;
    std::size_t batches = 0;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Rng rng(seed);
      Rng twin_rng(seed);
      for (int i = 0; i < kPacketsPerSeed; ++i) {
        const DataModel& model = models.at(rng.index(models.size()));
        twin_rng.index(models.size());
        const std::string what = name + "/" + model.name() + " seed " +
                                 std::to_string(seed) + " packet " +
                                 std::to_string(i);
        TreeBuilder& unfixed_tree = unfixed.instantiator().tree_for(model);
        if (i % 5 == 4) {
          const std::vector<Bytes> batch =
              generator.generate_batch(model, corpus, rng);
          const std::vector<Bytes> unfixed_batch =
              unfixed.generate_batch(model, corpus, twin_rng);
          ASSERT_EQ(batch.size(), unfixed_batch.size()) << what;
          if (batch.empty()) continue;  // no position has donors
          ++batches;
          ASSERT_EQ(unfixed_tree.serialize(), unfixed_batch.front()) << what;
          packet = batch.front();
        } else {
          generator.generate_into(model, corpus, rng, packet);
          unfixed.generate_into(model, corpus, twin_rng, unfixed_packet);
          ASSERT_EQ(unfixed_tree.serialize(), unfixed_packet) << what;
        }
        const Reference reference(unfixed_tree.tree());
        ASSERT_EQ(packet, reference.packet) << what;
        expect_builder_matches(generator.instantiator().tree_for(model),
                               reference, what);
      }
    }
    EXPECT_GT(batches, 0u) << name;
  }
}

/// True when both generators are at the same point of the same stream.
bool same_stream(const Rng& a, const Rng& b) {
  const Rng::State x = a.state();
  const Rng::State y = b.state();
  return std::equal(std::begin(x.words), std::end(x.words),
                    std::begin(y.words));
}

/// Rewrites 1-3 random leaves (any leaf, derived ones too) with random
/// bytes of a size other than their current one.
void perturb_leaves(TreeBuilder& builder, Rng& rng) {
  const std::size_t count = 1 + rng.index(3);
  for (std::size_t i = 0; i < count && !builder.leaves().empty(); ++i) {
    InsNode* leaf = rng.pick(builder.leaves());
    std::size_t size = rng.index(2 * leaf->content.size() + 4);
    if (size == leaf->content.size()) ++size;
    leaf->content = rng.bytes(size);
  }
}

TEST(FixupDifferential, CachedDefaultsMatchAFreshWalkOnEveryPit) {
  for (const auto& [name, models] : all_pits()) {
    for (const DataModel& model : models.models()) {
      TreeBuilder cached;
      TreeBuilder walked;
      for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const std::string what =
            name + "/" + model.name() + " seed " + std::to_string(seed);
        Rng rng(seed);
        Rng twin_rng(seed);
        cached.rebuild_defaults(model,
                                fuzz::ModelInstantiator::RandomChoice{rng});
        walked.rebuild(model, fuzz::ModelInstantiator::RandomChoice{twin_rng},
                       model::write_default);
        ASSERT_TRUE(same_stream(rng, twin_rng)) << what;
        ASSERT_EQ(cached.free_leaves().size(), walked.free_leaves().size())
            << what;
        // The same perturbation on both; the next seed's restore must undo
        // it on the cached builder.
        perturb_leaves(cached, rng);
        perturb_leaves(walked, twin_rng);
        ASSERT_EQ(cached.serialize(), walked.serialize()) << what;
        const Reference walk_reference(walked.tree());
        expect_fixup_matches_reference(cached, what);
        walked.apply_constraints();
        expect_builder_matches(walked, walk_reference, what);
        ASSERT_EQ(cached.serialize(), walk_reference.packet) << what;
      }
      EXPECT_EQ(cached.default_walks(), 1u) << name << "/" << model.name();
    }
  }
}

// -- Hand-built edge cases. -----------------------------------------------

/// OuterLen(sizeof Body) + Body{InnerLen(sizeof Data), Count(countof Items,
/// unit 2, bias 1), Data, Items} + Tail: nested relations, the outer one
/// first in pre-order.
DataModel nested_relations_model() {
  Chunk outer = Chunk::number("OuterLen", uint_spec(2));
  outer.with_relation(Relation{RelationKind::SizeOf, "Body", 1, 0});
  Chunk inner = Chunk::number("InnerLen", uint_spec(1));
  inner.with_relation(Relation{RelationKind::SizeOf, "Data", 1, 0});
  Chunk count = Chunk::number("Count", uint_spec(1));
  count.with_relation(Relation{RelationKind::CountOf, "Items", 2, 1});
  std::vector<Chunk> body;
  body.push_back(std::move(inner));
  body.push_back(std::move(count));
  body.push_back(Chunk::blob("Data", {}));
  body.push_back(Chunk::blob("Items", {}));
  std::vector<Chunk> root;
  root.push_back(std::move(outer));
  root.push_back(Chunk::block("Body", std::move(body)));
  root.push_back(Chunk::number("Tail", uint_spec(1)));
  return DataModel("nested-relations", Chunk::block("root", std::move(root)));
}

/// Len(sizeof PayloadB) + Op{AltA{TagA, PayloadA} | AltB{TagB, PayloadB}}
/// + Sum(sum8 PayloadB): while AltA is selected, the relation target and
/// the checksum ref are not in the tree, and the builder's entries for
/// them are left over from an earlier packet.
DataModel hidden_target_model() {
  Chunk len = Chunk::number("Len", uint_spec(1));
  len.with_relation(Relation{RelationKind::SizeOf, "PayloadB", 1, 0});
  Chunk sum = Chunk::number("Sum", uint_spec(1));
  sum.with_fixup(Fixup{FixupKind::Sum8, "PayloadB"});
  std::vector<Chunk> alternatives;
  alternatives.push_back(Chunk::block(
      "AltA", {Chunk::token("TagA", 1, Endian::Big, 0xA0),
               Chunk::blob("PayloadA", {})}));
  alternatives.push_back(Chunk::block(
      "AltB", {Chunk::token("TagB", 1, Endian::Big, 0xB0),
               Chunk::blob("PayloadB", {})}));
  std::vector<Chunk> root;
  root.push_back(std::move(len));
  root.push_back(Chunk::choice("Op", std::move(alternatives)));
  root.push_back(std::move(sum));
  return DataModel("hidden-target", Chunk::block("root", std::move(root)));
}

/// Frame{Header, Inner{Data, InnerSum(sum8 Data)}, Len(sizeof Inner)} +
/// Crc(crc16 Frame): the outer checksum's ref holds the inner checksum,
/// which must be final before the outer one is computed.
DataModel nested_fixups_model() {
  Chunk inner_sum = Chunk::number("InnerSum", uint_spec(1));
  inner_sum.with_fixup(Fixup{FixupKind::Sum8, "Data"});
  Chunk len = Chunk::number("Len", uint_spec(1));
  len.with_relation(Relation{RelationKind::SizeOf, "Inner", 1, 0});
  std::vector<Chunk> inner;
  inner.push_back(Chunk::blob("Data", {}));
  inner.push_back(std::move(inner_sum));
  std::vector<Chunk> frame;
  frame.push_back(Chunk::number("Header", uint_spec(1)));
  frame.push_back(Chunk::block("Inner", std::move(inner)));
  frame.push_back(std::move(len));
  Chunk crc = Chunk::number("Crc", uint_spec(2));
  crc.with_fixup(Fixup{FixupKind::Crc16Modbus, "Frame"});
  std::vector<Chunk> root;
  root.push_back(Chunk::block("Frame", std::move(frame)));
  root.push_back(std::move(crc));
  return DataModel("nested-fixups", Chunk::block("root", std::move(root)));
}

/// Body{InnerLen(u16 sizeof Data), Data} + OuterLen(sizeof Body) +
/// Crc(crc32 Body): InnerLen comes first in pre-order, so rewriting it at
/// its spec width changes the size OuterLen measures and the bytes Crc
/// covers.
DataModel width_model() {
  Chunk inner = Chunk::number("InnerLen", uint_spec(2));
  inner.with_relation(Relation{RelationKind::SizeOf, "Data", 1, 0});
  Chunk outer = Chunk::number("OuterLen", uint_spec(1));
  outer.with_relation(Relation{RelationKind::SizeOf, "Body", 1, 0});
  Chunk crc = Chunk::number("Crc", uint_spec(4));
  crc.with_fixup(Fixup{FixupKind::Crc32, "Body"});
  std::vector<Chunk> body;
  body.push_back(std::move(inner));
  body.push_back(Chunk::blob("Data", {}));
  std::vector<Chunk> root;
  root.push_back(Chunk::block("Body", std::move(body)));
  root.push_back(std::move(outer));
  root.push_back(std::move(crc));
  return DataModel("width", Chunk::block("root", std::move(root)));
}

/// Rebuilds `model` with random Choice picks and mutator-generated leaves.
void rebuild_random(TreeBuilder& builder, const DataModel& model,
                    const mutation::MutatorSuite& mutators, Rng& rng) {
  builder.rebuild(
      model,
      [&](const Chunk& choice) { return rng.index(choice.children().size()); },
      [&](const Chunk& leaf, Bytes& content) {
        mutators.generate_leaf_into(leaf, rng, content);
      });
}

TEST(FixupDifferential, NestedRelations) {
  const DataModel model = nested_relations_model();
  ASSERT_FALSE(model.validate().has_value()) << *model.validate();
  const mutation::MutatorSuite mutators;
  TreeBuilder builder;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed);
    rebuild_random(builder, model, mutators, rng);
    expect_fixup_matches_reference(builder, "seed " + std::to_string(seed));
  }
}

TEST(FixupDifferential, ChoiceWithAnUnselectedRelationTarget) {
  const DataModel model = hidden_target_model();
  ASSERT_FALSE(model.validate().has_value()) << *model.validate();
  const mutation::MutatorSuite mutators;
  TreeBuilder builder;
  std::size_t hidden = 0;
  std::size_t shown = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed);
    rebuild_random(builder, model, mutators, rng);
    (*builder.tree().root.children[1].choice_index == 0 ? hidden : shown)++;
    expect_fixup_matches_reference(builder, "seed " + std::to_string(seed));
  }
  EXPECT_GT(hidden, 500u);
  EXPECT_GT(shown, 500u);
}

TEST(FixupDifferential, ChoiceModelDefaultsKeepTheWalk) {
  // A model with a Choice never restores from a cache: every default
  // rebuild walks it and draws its alternative in the same pre-order as
  // rebuild() with write_default.
  const DataModel model = hidden_target_model();
  constexpr std::uint64_t kRebuilds = 500;
  TreeBuilder cached;
  TreeBuilder walked;
  for (std::uint64_t seed = 0; seed < kRebuilds; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    Rng rng(seed);
    Rng twin_rng(seed);
    cached.rebuild_defaults(model, fuzz::ModelInstantiator::RandomChoice{rng});
    walked.rebuild(model, fuzz::ModelInstantiator::RandomChoice{twin_rng},
                   model::write_default);
    ASSERT_TRUE(same_stream(rng, twin_rng)) << what;
    ASSERT_EQ(*cached.tree().root.children[1].choice_index,
              *walked.tree().root.children[1].choice_index)
        << what;
    perturb_leaves(cached, rng);
    perturb_leaves(walked, twin_rng);
    walked.apply_constraints();
    expect_fixup_matches_reference(cached, what);
    ASSERT_EQ(cached.serialize(), walked.serialize()) << what;
  }
  EXPECT_EQ(cached.default_walks(), kRebuilds);
}

TEST(FixupDifferential, ChecksumOverAnotherChecksum) {
  const DataModel model = nested_fixups_model();
  ASSERT_FALSE(model.validate().has_value()) << *model.validate();
  const mutation::MutatorSuite mutators;
  TreeBuilder builder;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed);
    rebuild_random(builder, model, mutators, rng);
    expect_fixup_matches_reference(builder, "seed " + std::to_string(seed));
  }
}

TEST(FixupDifferential, RelationFieldStoredAtAnotherWidth) {
  const DataModel model = width_model();
  ASSERT_FALSE(model.validate().has_value()) << *model.validate();
  const mutation::MutatorSuite mutators;
  TreeBuilder builder;
  std::size_t off_width = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed);
    const std::size_t inner_width = rng.index(5);  // spec width is 2
    off_width += inner_width != 2 ? 1 : 0;
    builder.rebuild(
        model, [](const Chunk&) { return std::size_t{0}; },
        [&](const Chunk& leaf, Bytes& content) {
          if (leaf.name() == "InnerLen") {
            content = rng.bytes(inner_width);
          } else {
            mutators.generate_leaf_into(leaf, rng, content);
          }
        });
    expect_fixup_matches_reference(builder, "seed " + std::to_string(seed));
    ASSERT_EQ(builder.tree().root.children[0].children[0].content.size(), 2u);
  }
  EXPECT_GT(off_width, 1000u);
}

}  // namespace
}  // namespace icsfuzz
