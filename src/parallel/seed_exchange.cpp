#include "parallel/seed_exchange.hpp"

namespace icsfuzz::par {

SeedExchange::SeedExchange(std::uint64_t rng_seed) : corpus_rng_(rng_seed) {}

bool SeedExchange::publish(std::size_t worker, Bytes bytes,
                           std::string model_name, std::uint64_t execution) {
  const std::uint64_t hash = content_hash(bytes);
  Shard& shard = shards_[hash % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (!shard.hashes.insert(hash).second) return false;  // already published
  shard.seeds.push_back(
      ExchangeSeed{std::move(bytes), std::move(model_name), worker, execution});
  published_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t SeedExchange::pull(std::size_t worker, Cursor& cursor,
                               std::vector<ExchangeSeed>& out) const {
  cursor.next.resize(shards_.size(), 0);
  std::size_t pulled = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t i = cursor.next[s]; i < shard.seeds.size(); ++i) {
      if (shard.seeds[i].origin_worker == worker) continue;
      out.push_back(shard.seeds[i]);
      ++pulled;
    }
    cursor.next[s] = shard.seeds.size();
  }
  return pulled;
}

void SeedExchange::merge_coverage(const cov::CoverageMap& map,
                                  const cov::PathTracker& paths) {
  std::lock_guard<std::mutex> lock(coverage_mutex_);
  global_map_.merge(map);
  global_paths_.merge(paths);
}

std::size_t SeedExchange::global_edges() const {
  std::lock_guard<std::mutex> lock(coverage_mutex_);
  return global_map_.edges_covered();
}

std::size_t SeedExchange::global_paths() const {
  std::lock_guard<std::mutex> lock(coverage_mutex_);
  return global_paths_.path_count();
}

void SeedExchange::publish_puzzles(const fuzz::PuzzleCorpus& corpus,
                                   std::uint64_t since) {
  std::lock_guard<std::mutex> lock(puzzle_mutex_);
  global_corpus_.merge_from(corpus, corpus_rng_, since);
}

std::size_t SeedExchange::import_puzzles(fuzz::PuzzleCorpus& into, Rng& rng,
                                         std::uint64_t& since) const {
  std::lock_guard<std::mutex> lock(puzzle_mutex_);
  const std::size_t added = into.merge_from(global_corpus_, rng, since);
  since = global_corpus_.revision();
  return added;
}

}  // namespace icsfuzz::par
