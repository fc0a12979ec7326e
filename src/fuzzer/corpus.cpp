#include "fuzzer/corpus.hpp"

#include <algorithm>

namespace icsfuzz::fuzz {
namespace {

std::uint64_t bytes_hash(const Bytes& data) { return content_hash(data); }

}  // namespace

bool PuzzleCorpus::add_to(std::unordered_map<std::uint64_t, Bucket>& tier,
                          std::uint64_t key, const Bytes& puzzle, Rng& rng) {
  Bucket& bucket = tier[key];
  const std::uint64_t hash = bytes_hash(puzzle);
  if (!bucket.hashes.insert(hash).second) return false;  // duplicate
  ++revision_;
  if (bucket.entries.size() < config_.per_rule_cap) {
    bucket.entries.push_back(puzzle);
    if (&tier == &exact_) ++exact_size_;
    return true;
  }
  // Random replacement keeps the bucket fresh without unbounded growth.
  const std::size_t victim = rng.index(bucket.entries.size());
  bucket.hashes.erase(bytes_hash(bucket.entries[victim]));
  bucket.entries[victim] = puzzle;
  return true;
}

bool PuzzleCorpus::add(const model::Chunk& rule, Bytes puzzle, Rng& rng) {
  const bool exact_added = add_to(exact_, rule.rule_key(), puzzle, rng);
  const bool shape_added = add_to(shape_, rule.shape_key(), puzzle, rng);
  return exact_added || shape_added;
}

std::size_t PuzzleCorpus::merge_from(const PuzzleCorpus& other, Rng& rng) {
  if (&other == this) return 0;
  std::size_t added = 0;
  for (const auto& [key, bucket] : other.exact_) {
    for (const Bytes& puzzle : bucket.entries) {
      added += add_to(exact_, key, puzzle, rng) ? 1 : 0;
    }
  }
  for (const auto& [key, bucket] : other.shape_) {
    for (const Bytes& puzzle : bucket.entries) {
      add_to(shape_, key, puzzle, rng);
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
                  const std::vector<CorpusSnapshot::BucketImage>& images) {
  tier.clear();
  for (const CorpusSnapshot::BucketImage& image : images) {
    auto& bucket = tier[image.key];
    bucket.entries = image.entries;
    for (const Bytes& entry : bucket.entries) {
      bucket.hashes.insert(bytes_hash(entry));
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
  restore_tier(exact_, image.exact);
  restore_tier(shape_, image.shape);
  exact_size_ = 0;
  for (const auto& [key, bucket] : exact_) exact_size_ += bucket.entries.size();
  revision_ = image.revision;
}

}  // namespace icsfuzz::fuzz
