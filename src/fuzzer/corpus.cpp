#include "fuzzer/corpus.hpp"

#include <algorithm>

namespace icsfuzz::fuzz {
namespace {

std::uint64_t bytes_hash(const Bytes& data) { return content_hash(data); }

}  // namespace

bool PuzzleCorpus::insert(Bucket& bucket, bool exact, std::uint64_t hash,
                          const Bytes& puzzle, Rng& rng) {
  if (std::find(bucket.hashes.begin(), bucket.hashes.end(), hash) !=
      bucket.hashes.end()) {
    return false;  // duplicate
  }
  bucket.changed = ++revision_;
  if (bucket.entries.size() < config_.per_rule_cap) {
    bucket.entries.push_back(puzzle);
    bucket.hashes.push_back(hash);
    if (exact) ++exact_size_;
    return true;
  }
  // Random replacement keeps the bucket fresh without unbounded growth.
  const std::size_t victim = rng.index(bucket.entries.size());
  bucket.entries[victim] = puzzle;
  bucket.hashes[victim] = hash;
  return true;
}

bool PuzzleCorpus::add(const model::Chunk& rule, Bytes puzzle, Rng& rng) {
  const std::uint64_t hash = bytes_hash(puzzle);
  const bool exact_added =
      insert(exact_[rule.rule_key()], true, hash, puzzle, rng);
  const bool shape_added =
      insert(shape_[rule.shape_key()], false, hash, puzzle, rng);
  return exact_added || shape_added;
}

std::size_t PuzzleCorpus::merge_from(const PuzzleCorpus& other, Rng& rng,
                                     std::uint64_t since) {
  // No bucket changed after the corpus' own revision.
  if (&other == this || other.revision_ <= since) return 0;
  std::size_t added = 0;
  for (const auto& [key, bucket] : other.exact_) {
    if (bucket.changed <= since || bucket.entries.empty()) continue;
    Bucket& into = exact_[key];
    for (std::size_t i = 0; i < bucket.entries.size(); ++i) {
      added += insert(into, true, bucket.hashes[i], bucket.entries[i], rng);
    }
  }
  for (const auto& [key, bucket] : other.shape_) {
    if (bucket.changed <= since || bucket.entries.empty()) continue;
    Bucket& into = shape_[key];
    for (std::size_t i = 0; i < bucket.entries.size(); ++i) {
      insert(into, false, bucket.hashes[i], bucket.entries[i], rng);
    }
  }
  return added;
}

const std::vector<Bytes>* PuzzleCorpus::exact_candidates(
    const model::Chunk& rule) const {
  auto it = exact_.find(rule.rule_key());
  if (it == exact_.end() || it->second.entries.empty()) return nullptr;
  return &it->second.entries;
}

const std::vector<Bytes>* PuzzleCorpus::similar_candidates(
    const model::Chunk& rule) const {
  auto it = shape_.find(rule.shape_key());
  if (it == shape_.end() || it->second.entries.empty()) return nullptr;
  return &it->second.entries;
}

void PuzzleCorpus::clear() {
  exact_.clear();
  shape_.clear();
  exact_size_ = 0;
  ++revision_;
}

namespace {

// Templated so the helpers never name the private PuzzleCorpus::Bucket type.
template <typename Tier>
std::vector<CorpusSnapshot::BucketImage> image_tier(const Tier& tier) {
  std::vector<CorpusSnapshot::BucketImage> images;
  images.reserve(tier.size());
  for (const auto& [key, bucket] : tier) {
    images.push_back({key, bucket.entries});
  }
  std::sort(images.begin(), images.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  return images;
}

template <typename Tier>
void restore_tier(Tier& tier,
                  const std::vector<CorpusSnapshot::BucketImage>& images,
                  std::uint64_t revision) {
  tier.clear();
  for (const CorpusSnapshot::BucketImage& image : images) {
    auto& bucket = tier[image.key];
    bucket.entries = image.entries;
    bucket.changed = revision;
    for (const Bytes& entry : bucket.entries) {
      bucket.hashes.push_back(bytes_hash(entry));
    }
  }
}

}  // namespace

CorpusSnapshot PuzzleCorpus::snapshot() const {
  CorpusSnapshot image;
  image.exact = image_tier(exact_);
  image.shape = image_tier(shape_);
  image.revision = revision_;
  return image;
}

void PuzzleCorpus::restore(const CorpusSnapshot& image) {
  restore_tier(exact_, image.exact, image.revision);
  restore_tier(shape_, image.shape, image.revision);
  exact_size_ = 0;
  for (const auto& [key, bucket] : exact_) exact_size_ += bucket.entries.size();
  revision_ = image.revision;
}

}  // namespace icsfuzz::fuzz
