// Tests for the puzzle corpus and the File Cracker (paper Algorithm 2 and
// Definition 2).
#include <gtest/gtest.h>

#include "fuzzer/cracker.hpp"
#include "fuzzer/instantiator.hpp"
#include "pits/pits.hpp"

namespace icsfuzz::fuzz {
namespace {

using model::Chunk;
using model::DataModel;
using model::NumberSpec;

NumberSpec u16() {
  NumberSpec spec;
  spec.width = 2;
  return spec;
}

// -------------------------------------------------------------------- Corpus

TEST(PuzzleCorpus, AddAndLookupByExactRule) {
  PuzzleCorpus corpus;
  Rng rng(1);
  Chunk rule = Chunk::number("Addr", u16());
  rule.with_tag("mb-addr");
  EXPECT_TRUE(corpus.add(rule, {0x00, 0x10}, rng));
  const auto* candidates = corpus.exact_candidates(rule);
  ASSERT_NE(candidates, nullptr);
  ASSERT_EQ(candidates->size(), 1u);
  EXPECT_EQ((*candidates)[0], (Bytes{0x00, 0x10}));
}

TEST(PuzzleCorpus, DeduplicatesIdenticalPuzzles) {
  PuzzleCorpus corpus;
  Rng rng(2);
  Chunk rule = Chunk::number("Addr", u16());
  EXPECT_TRUE(corpus.add(rule, {1, 2}, rng));
  EXPECT_FALSE(corpus.add(rule, {1, 2}, rng));
  EXPECT_EQ(corpus.exact_candidates(rule)->size(), 1u);
}

TEST(PuzzleCorpus, CrossModelLookupViaSharedTag) {
  PuzzleCorpus corpus;
  Rng rng(3);
  Chunk producer = Chunk::number("ReadCoils.Address", u16());
  producer.with_tag("mb-addr");
  corpus.add(producer, {0x00, 0x42}, rng);

  Chunk consumer = Chunk::number("WriteSingleCoil.Address", u16());
  consumer.with_tag("mb-addr");
  const auto* candidates = corpus.exact_candidates(consumer);
  ASSERT_NE(candidates, nullptr);
  EXPECT_EQ((*candidates)[0], (Bytes{0x00, 0x42}));
}

TEST(PuzzleCorpus, SimilarTierMatchesShapeOnly) {
  PuzzleCorpus corpus;
  Rng rng(4);
  Chunk producer = Chunk::number("a", u16());
  producer.with_tag("tag-a");
  corpus.add(producer, {9, 9}, rng);

  Chunk other_tag = Chunk::number("b", u16());
  other_tag.with_tag("tag-b");
  EXPECT_EQ(corpus.exact_candidates(other_tag), nullptr);
  ASSERT_NE(corpus.similar_candidates(other_tag), nullptr);
}

TEST(PuzzleCorpus, PerRuleCapWithReplacement) {
  CorpusConfig config;
  config.per_rule_cap = 4;
  PuzzleCorpus corpus(config);
  Rng rng(5);
  Chunk rule = Chunk::number("n", u16());
  for (std::uint8_t i = 0; i < 20; ++i) {
    corpus.add(rule, {i, i}, rng);
  }
  EXPECT_EQ(corpus.exact_candidates(rule)->size(), 4u);
}

TEST(PuzzleCorpus, SizeAndClear) {
  PuzzleCorpus corpus;
  Rng rng(6);
  Chunk a = Chunk::number("a", u16());
  Chunk b = Chunk::blob("b", {});
  corpus.add(a, {1, 1}, rng);
  corpus.add(b, {2}, rng);
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.rule_count(), 2u);
  EXPECT_FALSE(corpus.empty());
  corpus.clear();
  EXPECT_TRUE(corpus.empty());
  EXPECT_EQ(corpus.size(), 0u);
}

/// The exact tier's entries summed bucket by bucket (what size() counts).
std::size_t exact_bucket_sum(const PuzzleCorpus& corpus) {
  std::size_t total = 0;
  for (const auto& bucket : corpus.snapshot().exact) {
    total += bucket.entries.size();
  }
  return total;
}

TEST(PuzzleCorpus, RunningSizeMatchesTheBucketSum) {
  CorpusConfig config;
  config.per_rule_cap = 3;
  Rng rng(7);
  Chunk a = Chunk::number("a", u16());
  Chunk b = Chunk::number("b", u16());
  b.with_tag("tag-b");  // same shape as `a`: one shape bucket, two exact
  PuzzleCorpus corpus(config);

  // Adds, duplicates, and replacements once a bucket is at its cap.
  for (std::uint8_t i = 0; i < 8; ++i) {
    corpus.add(a, {i, 0}, rng);
    corpus.add(b, {0, i}, rng);
    corpus.add(a, {i, 0}, rng);  // duplicate
    ASSERT_EQ(corpus.size(), exact_bucket_sum(corpus)) << "add " << int{i};
  }
  EXPECT_EQ(corpus.size(), 6u);

  // merge_from: into an empty corpus, into a partial one, into itself.
  PuzzleCorpus peer(config);
  Chunk c = Chunk::blob("c", {});
  peer.add(c, {9}, rng);
  peer.merge_from(corpus, rng);
  EXPECT_EQ(peer.size(), exact_bucket_sum(peer));
  EXPECT_EQ(peer.size(), 7u);
  corpus.merge_from(peer, rng);
  corpus.merge_from(corpus, rng);
  EXPECT_EQ(corpus.size(), exact_bucket_sum(corpus));
  EXPECT_EQ(corpus.size(), 7u);

  // restore: over a populated corpus and over a cleared one.
  const CorpusSnapshot image = corpus.snapshot();
  peer.restore(image);
  EXPECT_EQ(peer.size(), exact_bucket_sum(peer));
  EXPECT_EQ(peer.size(), corpus.size());
  corpus.clear();
  EXPECT_EQ(corpus.size(), 0u);
  EXPECT_EQ(exact_bucket_sum(corpus), 0u);
  corpus.restore(image);
  EXPECT_EQ(corpus.size(), exact_bucket_sum(corpus));
  EXPECT_EQ(corpus.size(), 7u);
  corpus.add(c, {10}, rng);
  EXPECT_EQ(corpus.size(), exact_bucket_sum(corpus));
  EXPECT_EQ(corpus.size(), 8u);
}

// ------------------------------------------------------------------- Cracker

DataModel simple_model() {
  std::vector<Chunk> fields;
  fields.push_back(Chunk::token("Fc", 1, Endian::Big, 0x03));
  Chunk addr = Chunk::number("Addr", u16());
  addr.with_tag("addr");
  fields.push_back(std::move(addr));
  Chunk qty = Chunk::number("Qty", u16());
  qty.with_tag("qty");
  fields.push_back(std::move(qty));
  return DataModel("Read", Chunk::block("root", std::move(fields)));
}

TEST(FileCracker, LegalSeedYieldsSubtreePuzzles) {
  const DataModel model = simple_model();
  model::DataModelSet set;
  set.add(simple_model());
  PuzzleCorpus corpus;
  Rng rng(7);
  FileCracker cracker;
  const Bytes seed{0x03, 0x00, 0x10, 0x00, 0x02};
  const CrackStats stats = cracker.crack(set, seed, corpus, rng);
  EXPECT_EQ(stats.models_parsed, 1u);
  // Puzzles per Definition 2: root (whole packet), Fc, Addr, Qty.
  EXPECT_EQ(stats.puzzles_seen, 4u);
  EXPECT_GE(stats.puzzles_added, 4u);

  Chunk addr_rule = Chunk::number("x", u16());
  addr_rule.with_tag("addr");
  const auto* addr_puzzles = corpus.exact_candidates(addr_rule);
  ASSERT_NE(addr_puzzles, nullptr);
  EXPECT_EQ((*addr_puzzles)[0], (Bytes{0x00, 0x10}));
}

TEST(FileCracker, IllegalSeedAddsNothing) {
  model::DataModelSet set;
  set.add(simple_model());
  PuzzleCorpus corpus;
  Rng rng(8);
  FileCracker cracker;
  const Bytes bad{0x06, 0x00, 0x10, 0x00, 0x02};  // wrong token
  const CrackStats stats = cracker.crack(set, bad, corpus, rng);
  EXPECT_EQ(stats.models_parsed, 0u);
  EXPECT_TRUE(corpus.empty());
}

TEST(FileCracker, TriesEveryModelInTheSet) {
  model::DataModelSet set;
  set.add(simple_model());
  // A second model that also parses the same bytes (coarse blob).
  set.add(DataModel("Raw", Chunk::block("Raw.root", {Chunk::blob("Raw.all", {})})));
  PuzzleCorpus corpus;
  Rng rng(9);
  FileCracker cracker;
  const Bytes seed{0x03, 0x00, 0x10, 0x00, 0x02};
  const CrackStats stats = cracker.crack(set, seed, corpus, rng);
  EXPECT_EQ(stats.models_parsed, 2u);
}

TEST(FileCracker, PuzzleOrderPreservesWireOrder) {
  // Internal-node puzzles must concatenate children in model order
  // (Definition 2's "organized in order as described in the data model").
  model::DataModelSet set;
  set.add(simple_model());
  PuzzleCorpus corpus;
  Rng rng(10);
  FileCracker cracker;
  const Bytes seed{0x03, 0xAA, 0xBB, 0xCC, 0xDD};
  cracker.crack(set, seed, corpus, rng);
  // The root puzzle is the whole packet in order.
  const DataModel probe = simple_model();
  const auto* root_puzzles = corpus.exact_candidates(probe.root());
  ASSERT_NE(root_puzzles, nullptr);
  EXPECT_EQ((*root_puzzles)[0], seed);
}

TEST(FileCracker, RealPitRoundTrip) {
  // Crack a default Modbus packet and expect address/quantity donors.
  const model::DataModelSet set = pits::modbus_pit();
  ModelInstantiator instantiator;
  Rng rng(11);
  const model::DataModel* read_model = set.find("ReadHoldingRegisters");
  ASSERT_NE(read_model, nullptr);
  const Bytes seed = model::default_instance(*read_model).serialize();

  PuzzleCorpus corpus;
  FileCracker cracker;
  const CrackStats stats = cracker.crack(set, seed, corpus, rng);
  EXPECT_GE(stats.models_parsed, 1u);
  EXPECT_GT(corpus.size(), 0u);

  // The Address donor must be reachable from the WriteSingleRegister model
  // through the shared "mb-addr" tag.
  const model::DataModel* write_model = set.find("WriteSingleRegister");
  ASSERT_NE(write_model, nullptr);
  const model::Chunk* write_addr = write_model->find("WriteSingleRegister.Address");
  ASSERT_NE(write_addr, nullptr);
  EXPECT_NE(corpus.exact_candidates(*write_addr), nullptr);
}

TEST(FileCracker, LaxOptionsAcceptBrokenChecksums) {
  // With verification off, the cracker accepts integrity-broken packets
  // (used by tests and by the no-fixup ablation analysis).
  model::DataModelSet set = pits::dnp3_pit();
  const model::DataModel* model = set.find("DnpColdRestart");
  ASSERT_NE(model, nullptr);
  Bytes seed = model::default_instance(*model).serialize();
  seed[8] ^= 0xFF;  // corrupt the header CRC

  PuzzleCorpus corpus;
  Rng rng(12);
  FileCracker strict;
  EXPECT_EQ(strict.crack_one(*model, seed, corpus, rng).models_parsed, 0u);

  model::ParseOptions lax;
  lax.verify_fixups = false;
  FileCracker tolerant(lax);
  EXPECT_EQ(tolerant.crack_one(*model, seed, corpus, rng).models_parsed, 1u);
}

}  // namespace
}  // namespace icsfuzz::fuzz
