// FlatU64Set — the set of 64-bit hashes behind both the path tracker
// (cov::PathTracker) and the executed-packet dedup (fuzz::GenerationalDedup).
//
// A linear-probing open-addressing table rather than std::unordered_set:
// both callers probe once per execution, and the node-based set's pointer
// chase and per-insert allocation were a visible slice of it. Probes touch
// one contiguous cache line in the common case, inserts never allocate
// until the table doubles, and there are no tombstones (neither caller
// erases single keys). The stored value is the raw key; a Fibonacci
// multiply spreads it only inside the slot index, so keys with weak low
// bits (FNV-1a packet hashes) index as well as splitmix-finalized ones.
//
// A caller that probes a key long before it inserts it (the fuzzer's
// executed-packet dedup: probe at generation, insert at commit) keeps the
// probe's stopping slot from contains(key, slot) and hands it back to
// insert_at(), which stores there without probing again when the slot is
// still empty and the table has not grown. Linear probing never deletes,
// so that slot is still the one insert() would pick.
//
// Checkpoint form: snapshot() lists the keys in table order and restore()
// rebuilds the identical slot layout from that list, so capture -> restore
// -> capture is byte-identical and the table's memory is copied, not
// sorted. Slot arrays of 256 KiB or more get their own anonymous mapping,
// unmapped on free: campaigns grow these tables on short-lived threads, and
// multi-MiB heap blocks freed there would stay stranded in glibc arenas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace icsfuzz {

class FlatU64Set {
 public:
  FlatU64Set() = default;
  FlatU64Set(const FlatU64Set& other);
  FlatU64Set& operator=(const FlatU64Set& other);
  /// A moved-from set is empty.
  FlatU64Set(FlatU64Set&& other) noexcept;
  FlatU64Set& operator=(FlatU64Set&& other) noexcept;
  ~FlatU64Set();

  /// Adds `key`; returns true if it was not already present.
  bool insert(std::uint64_t key);

  [[nodiscard]] bool contains(std::uint64_t key) const;

  /// contains(), also setting `slot` to where the probe stopped: the key's
  /// slot, or the empty slot insert() would put it in.
  [[nodiscard]] bool contains(std::uint64_t key, std::size_t& slot) const;

  /// insert() of a `key` that contains(key, slot) found absent while the
  /// table had `slot_count` slots. Stores it straight into `slot` when that
  /// slot is still empty, the table has not grown and the insert stays
  /// within the load cap; otherwise falls back to insert(). Linear probing
  /// never deletes, so an empty remembered slot is still the first empty
  /// one on the key's probe run: the layout is exactly insert()'s. The
  /// caller must not have restored or cleared the set since the probe.
  bool insert_at(std::uint64_t key, std::size_t slot, std::size_t slot_count);

  [[nodiscard]] std::size_t size() const {
    return filled_ + (has_zero_ ? 1 : 0);
  }

  /// Folds `other` into this set; returns the number of keys that were new.
  std::size_t merge(const FlatU64Set& other);

  /// The keys in table order: 0 first when present, then the slots starting
  /// just past the first empty one (so no probe run is split by the wrap).
  [[nodiscard]] std::vector<std::uint64_t> snapshot() const;

  /// Replaces the contents with `keys`. Given a snapshot() of a set, the
  /// rebuilt slot layout — and so every later snapshot — is identical.
  void restore(std::span<const std::uint64_t> keys);

  /// Empties the set and releases the slot array.
  void clear();

  /// Slot array length (0 before the first insert; a power of two after).
  [[nodiscard]] std::size_t slot_count() const { return slot_count_; }

 private:
  /// Allocates a zeroed slot array of `count` slots (a power of two).
  void allocate(std::size_t count);
  /// Doubles the table and re-inserts every key.
  void grow();
  /// Slot `key` lives in or would be inserted at.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const;

  /// 0 marks an empty slot, so the (rare but legal) zero key is the side
  /// flag instead. The load stays at or below 50%, so a table holding n
  /// keys always has the smallest power-of-two length >= max(1024, 2n).
  std::uint64_t* slots_ = nullptr;
  std::size_t slot_count_ = 0;
  unsigned shift_ = 64;  // 64 - log2(slot_count_)
  std::size_t filled_ = 0;
  bool has_zero_ = false;
};

}  // namespace icsfuzz
