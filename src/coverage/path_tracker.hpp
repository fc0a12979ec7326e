// Path-coverage accounting: the paper's primary metric ("number of paths
// covered") counts distinct whole-execution traces, identified here by the
// order-insensitive hash of the classified edge set.
//
// The store is the flat open-addressing FlatU64Set (util/flat_u64_set.hpp)
// it shares with the executed-packet dedup: record() runs once per
// execution and never allocates until the table doubles. Its semantics (a
// set of uint64) are asserted against an unordered_set oracle in
// tests/test_path_tracker.cpp and gated for throughput in bench_hotpath.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/flat_u64_set.hpp"

namespace icsfuzz::cov {

class PathTracker {
 public:
  /// Registers one execution's trace hash; returns true if this path is new.
  bool record(std::uint64_t trace_hash) { return paths_.insert(trace_hash); }

  /// Distinct paths observed so far.
  [[nodiscard]] std::size_t path_count() const { return paths_.size(); }

  /// True when `trace_hash` has been seen.
  [[nodiscard]] bool contains(std::uint64_t trace_hash) const {
    return paths_.contains(trace_hash);
  }

  /// Folds `other`'s path set into this one (idempotent, commutative).
  /// Returns the number of paths that were new to this tracker.
  std::size_t merge(const PathTracker& other) {
    return paths_.merge(other.paths_);
  }

  /// Copies the path set (order unspecified). The seed exchange merges live
  /// trackers directly (merge()); the snapshot form is for detached copies
  /// — serialization, cross-process shipping, tests.
  [[nodiscard]] std::vector<std::uint64_t> snapshot() const {
    return paths_.snapshot();
  }

  void clear() { paths_.clear(); }

 private:
  FlatU64Set paths_;
};

}  // namespace icsfuzz::cov
