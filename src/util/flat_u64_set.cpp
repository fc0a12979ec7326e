#include "util/flat_u64_set.hpp"

#include <sys/mman.h>

#include <bit>
#include <cstring>
#include <new>
#include <utility>

namespace icsfuzz {

namespace {

/// First allocation on first insert; small enough to be free, large enough
/// that short campaigns never rehash.
constexpr std::size_t kInitialSlots = 1024;

/// Slot arrays at least this large are mmapped rather than heap-allocated.
constexpr std::size_t kMapBytes = 256 * 1024;

std::uint64_t* allocate_slots(std::size_t count) {
  const std::size_t bytes = count * sizeof(std::uint64_t);
  if (bytes < kMapBytes) return new std::uint64_t[count]();
  // Populated up front: the rehash that fills a new table touches every
  // page anyway, and one kernel call beats a fault per page (~10% of
  // bench/e2e modbus-supervised-2w throughput on a 4-vCPU VM).
  void* memory =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (memory == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint64_t*>(memory);  // anonymous pages are zero
}

void release_slots(std::uint64_t* slots, std::size_t count) {
  if (slots == nullptr) return;
  const std::size_t bytes = count * sizeof(std::uint64_t);
  if (bytes < kMapBytes) {
    delete[] slots;
  } else {
    ::munmap(slots, bytes);
  }
}

}  // namespace

FlatU64Set::FlatU64Set(const FlatU64Set& other)
    : filled_(other.filled_), has_zero_(other.has_zero_) {
  if (other.slots_ != nullptr) {
    allocate(other.slot_count_);
    std::memcpy(slots_, other.slots_, slot_count_ * sizeof(std::uint64_t));
  }
}

FlatU64Set& FlatU64Set::operator=(const FlatU64Set& other) {
  if (this != &other) *this = FlatU64Set(other);
  return *this;
}

FlatU64Set::FlatU64Set(FlatU64Set&& other) noexcept
    : slots_(std::exchange(other.slots_, nullptr)),
      slot_count_(std::exchange(other.slot_count_, 0)),
      shift_(std::exchange(other.shift_, 64)),
      filled_(std::exchange(other.filled_, 0)),
      has_zero_(std::exchange(other.has_zero_, false)) {}

FlatU64Set& FlatU64Set::operator=(FlatU64Set&& other) noexcept {
  if (this != &other) {
    release_slots(slots_, slot_count_);
    slots_ = std::exchange(other.slots_, nullptr);
    slot_count_ = std::exchange(other.slot_count_, 0);
    shift_ = std::exchange(other.shift_, 64);
    filled_ = std::exchange(other.filled_, 0);
    has_zero_ = std::exchange(other.has_zero_, false);
  }
  return *this;
}

FlatU64Set::~FlatU64Set() { release_slots(slots_, slot_count_); }

void FlatU64Set::allocate(std::size_t count) {
  slots_ = allocate_slots(count);
  slot_count_ = count;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(count));
}

std::size_t FlatU64Set::probe(std::uint64_t key) const {
  const std::size_t mask = slot_count_ - 1;
  std::size_t slot =
      static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  while (slots_[slot] != 0 && slots_[slot] != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

bool FlatU64Set::insert(std::uint64_t key) {
  if (key == 0) {
    const bool fresh = !has_zero_;
    has_zero_ = true;
    return fresh;
  }
  if (slots_ == nullptr) allocate(kInitialSlots);
  std::size_t slot = probe(key);
  if (slots_[slot] == key) return false;
  if ((filled_ + 1) * 2 > slot_count_) {
    grow();
    slot = probe(key);
  }
  slots_[slot] = key;
  ++filled_;
  return true;
}

bool FlatU64Set::contains(std::uint64_t key) const {
  std::size_t slot = 0;
  return contains(key, slot);
}

bool FlatU64Set::contains(std::uint64_t key, std::size_t& slot) const {
  slot = 0;
  if (key == 0) return has_zero_;
  if (slots_ == nullptr) return false;
  slot = probe(key);
  return slots_[slot] == key;
}

bool FlatU64Set::insert_at(std::uint64_t key, std::size_t slot,
                           std::size_t slot_count) {
  if (key == 0 || slot_count != slot_count_ || slots_ == nullptr ||
      slots_[slot] != 0 || (filled_ + 1) * 2 > slot_count_) {
    return insert(key);
  }
  slots_[slot] = key;
  ++filled_;
  return true;
}

void FlatU64Set::grow() {
  std::uint64_t* const old = slots_;
  const std::size_t old_count = slot_count_;
  allocate(old_count * 2);
  for (std::size_t i = 0; i < old_count; ++i) {
    if (old[i] != 0) slots_[probe(old[i])] = old[i];
  }
  release_slots(old, old_count);
}

std::size_t FlatU64Set::merge(const FlatU64Set& other) {
  std::size_t added = 0;
  if (other.has_zero_ && !has_zero_) {
    has_zero_ = true;
    ++added;
  }
  for (std::size_t i = 0; i < other.slot_count_; ++i) {
    if (other.slots_[i] != 0) added += insert(other.slots_[i]) ? 1 : 0;
  }
  return added;
}

std::vector<std::uint64_t> FlatU64Set::snapshot() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(size());
  if (has_zero_) keys.push_back(0);
  if (slots_ == nullptr) return keys;
  // Every probe run ends before an empty slot, and the load cap guarantees
  // one exists; starting past it lists each run in insertion-replay order.
  std::size_t empty = 0;
  while (slots_[empty] != 0) ++empty;
  const std::size_t mask = slot_count_ - 1;
  for (std::size_t i = 1; i <= slot_count_; ++i) {
    const std::uint64_t key = slots_[(empty + i) & mask];
    if (key != 0) keys.push_back(key);
  }
  return keys;
}

void FlatU64Set::restore(std::span<const std::uint64_t> keys) {
  clear();
  std::size_t nonzero = 0;
  for (const std::uint64_t key : keys) nonzero += key != 0 ? 1 : 0;
  if (nonzero > 0) {
    std::size_t count = kInitialSlots;
    while (count < 2 * nonzero) count *= 2;
    allocate(count);
  }
  // Replaying a snapshot run by run puts every key back in its own slot:
  // its probe from home crosses only the run's earlier keys.
  for (const std::uint64_t key : keys) insert(key);
}

void FlatU64Set::clear() {
  release_slots(slots_, slot_count_);
  slots_ = nullptr;
  slot_count_ = 0;
  shift_ = 64;
  filled_ = 0;
  has_zero_ = false;
}

}  // namespace icsfuzz
