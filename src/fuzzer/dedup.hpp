// GenerationalDedup — bounded-memory executed-packet dedup.
//
// The fuzzer rules out "meaningless repetitions of path exploration"
// (paper §I) by hashing every executed packet. An unbounded set would grow
// without limit over a long campaign; the naive fix — wipe the whole set at
// a threshold — discards ALL dedup state at once, so the iterations right
// after the wipe happily re-execute the most recently seen packets.
//
// This class keeps two generations instead: inserts go to `current_`, and
// when `current_` reaches half the capacity it rotates into `previous_`
// (dropping the generation before it). Membership checks consult both, so
// at any moment at least the most recent capacity/2 distinct hashes are
// still deduplicated — the half-clear costs one move, no rehash, no copy.
//
// Each generation is a FlatU64Set (util/flat_u64_set.hpp) holding the raw
// FNV-1a packet hashes (fnv1a64): an insert allocates only when its table
// doubles, and a full checkpoint copies each table in slot order, unsorted.
//
// The fuzzer probes a packet's hash once, when it generates the packet
// (contains with a Probe), and inserts it when the packet commits. The
// Probe remembers where the current generation's probe stopped, the table's
// slot count and a rotation count; insert(hash, probe) stores straight into
// that slot when nothing has moved, skipping both generations' re-probes,
// and otherwise falls back to insert(). Either way the tables, and so the
// snapshots and the journal, are exactly those of plain inserts.
//
// Incremental checkpoints (supervise/checkpoint.hpp) read the journal
// instead: once armed, every successful insert is appended to a buffer
// reserved at arm time, so replaying the journal's hashes in order into
// tables restored from the last full snapshot rebuilds both tables slot
// for slot. A rotation, an overflow or a restore invalidates the journal
// until it is re-armed; an unarmed dedup pays one predictable branch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/flat_u64_set.hpp"

namespace icsfuzz::fuzz {

class GenerationalDedup {
 public:
  /// `capacity` bounds the total retained hashes across both generations.
  explicit GenerationalDedup(std::size_t capacity = 1ULL << 21)
      : capacity_(capacity < 2 ? 2 : capacity) {}

  /// Where contains(hash, probe) stopped in the current generation, and
  /// the table state it saw.
  struct Probe {
    std::size_t slot = 0;
    std::size_t slot_count = 0;
    std::uint64_t rotations = 0;
  };

  /// Records `hash`; returns true when it was NOT seen in the two retained
  /// generations (i.e. the packet should execute).
  bool insert(std::uint64_t hash) {
    if (previous_.contains(hash) || !current_.insert(hash)) return false;
    record(hash);
    return true;
  }

  /// insert() of a `hash` that contains(hash, probe) found absent. With no
  /// rotation or restore since the probe, `previous_` is unchanged and is
  /// not probed again, and the current generation stores the hash straight
  /// into the probed slot when it can (FlatU64Set::insert_at). Tables and
  /// journal end up exactly as after insert().
  bool insert(std::uint64_t hash, const Probe& probe) {
    if (probe.rotations != rotations_) return insert(hash);
    if (!current_.insert_at(hash, probe.slot, probe.slot_count)) return false;
    record(hash);
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t hash) const {
    return current_.contains(hash) || previous_.contains(hash);
  }

  /// contains(), remembering in `probe` where the current generation's
  /// probe stopped, for a later insert(hash, probe).
  [[nodiscard]] bool contains(std::uint64_t hash, Probe& probe) const {
    probe.slot_count = current_.slot_count();
    probe.rotations = rotations_;
    return current_.contains(hash, probe.slot) || previous_.contains(hash);
  }

  /// Hashes currently retained (both generations).
  [[nodiscard]] std::size_t size() const {
    return current_.size() + previous_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Checkpoint access: the two generations, separately. Which set is
  /// `current_` matters — rotation fires off current_'s size — so resume
  /// must restore them as distinct sets, not a merged union. Restoring
  /// their snapshot() lists rebuilds both tables slot for slot.
  [[nodiscard]] const FlatU64Set& current_generation() const {
    return current_;
  }
  [[nodiscard]] const FlatU64Set& previous_generation() const {
    return previous_;
  }
  void restore_generations(std::span<const std::uint64_t> current,
                           std::span<const std::uint64_t> previous) {
    current_.restore(current);
    previous_.restore(previous);
    ++rotations_;
    journal_valid_ = false;
  }

  /// Empties the journal and records from here on, up to `capacity`
  /// inserts (capped at the capacity()/2 inserts a rotation allows). The
  /// buffer is reserved on the first call; re-arming at the same capacity
  /// never allocates.
  void arm_journal(std::size_t capacity) {
    journal_limit_ = std::min(capacity, capacity_ / 2);
    journal_.clear();
    journal_.reserve(journal_limit_);
    journal_valid_ = true;
  }

  /// True while journal() holds every insert since the last arm_journal().
  [[nodiscard]] bool journal_valid() const { return journal_valid_; }

  /// The hashes inserted since the last arm_journal(), in insert order.
  [[nodiscard]] std::span<const std::uint64_t> journal() const {
    return journal_;
  }

 private:
  /// The bookkeeping after `hash` joined the current generation.
  void record(std::uint64_t hash) {
    if (journal_valid_) {
      if (journal_.size() < journal_limit_) {
        journal_.push_back(hash);
      } else {
        journal_valid_ = false;
      }
    }
    if (current_.size() >= capacity_ / 2) {
      // Rotate: the oldest generation's memory is released, the newest
      // half of the history is retained verbatim.
      previous_ = std::move(current_);
      ++rotations_;
      journal_valid_ = false;
    }
  }

  std::size_t capacity_;
  FlatU64Set current_;
  FlatU64Set previous_;
  std::vector<std::uint64_t> journal_;
  std::size_t journal_limit_ = 0;
  bool journal_valid_ = false;
  /// Bumped by every rotation and restore: a Probe taken before either is
  /// stale.
  std::uint64_t rotations_ = 0;
};

}  // namespace icsfuzz::fuzz
