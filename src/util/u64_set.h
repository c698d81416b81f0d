// Open-addressing set of 64-bit keys for per-round census counting.
//
// Unlike std::unordered_set, Clear() keeps the table: once the set has
// grown to the largest count a caller sees, every later fill reuses it
// and allocates nothing. Clear() costs O(size), not O(capacity) — the
// set remembers which slots it filled. ForEach visits the keys in an
// order fixed by the inserted keys, their insertion order and the fixed
// hash, never by addresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kcore::util {

namespace internal {
// splitmix64 finalizer: spreads nearby bit patterns (doubles that differ
// in low mantissa bits) across a table.
inline std::uint64_t HashU64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace internal

class U64Set {
 public:
  // Inserts `key`; returns true iff it was not present.
  bool Insert(std::uint64_t key) {
    if (key == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      return true;
    }
    if ((used_.size() + 1) * 2 > table_.size()) Grow();
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      if (table_[i] == key) return false;
      if (table_[i] == kEmpty) {
        table_[i] = key;
        used_.push_back(static_cast<std::uint32_t>(i));
        return true;
      }
    }
  }

  std::size_t size() const { return used_.size() + (has_empty_key_ ? 1 : 0); }

  // Empties the set, keeping its storage.
  void Clear() {
    for (std::uint32_t i : used_) table_[i] = kEmpty;
    used_.clear();
    has_empty_key_ = false;
  }

  template <typename F>
  void ForEach(F&& f) const {
    for (std::uint32_t i : used_) f(table_[i]);
    if (has_empty_key_) f(kEmpty);
  }

 private:
  // The marker of a free slot; a real key equal to it lives in the flag.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::uint64_t Hash(std::uint64_t x) { return internal::HashU64(x); }

  void Grow() {
    std::vector<std::uint64_t> old;
    old.reserve(used_.size());
    for (std::uint32_t i : used_) old.push_back(table_[i]);
    table_.assign(table_.empty() ? 16 : table_.size() * 2, kEmpty);
    used_.clear();
    const std::size_t mask = table_.size() - 1;
    for (std::uint64_t key : old) {
      std::size_t i = Hash(key) & mask;
      while (table_[i] != kEmpty) i = (i + 1) & mask;
      table_[i] = key;
      used_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::vector<std::uint64_t> table_;  // power-of-two size, kEmpty = free
  std::vector<std::uint32_t> used_;   // filled slots, in fill order
  bool has_empty_key_ = false;
};

// Open-addressing map from 64-bit keys to signed count deltas: one
// compute chunk's census changes for a round (values counted in and
// out), merged into a U64Multiset between rounds. Like U64Set, Clear()
// costs O(size) and keeps the table; ForEach visits the keys in fill
// order.
class U64DeltaMap {
 public:
  void Add(std::uint64_t key, std::int64_t delta) {
    if (key == kEmpty) {
      empty_delta_ += delta;
      return;
    }
    if ((used_.size() + 1) * 2 > keys_.size()) Grow();
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = internal::HashU64(key) & mask;; i = (i + 1) & mask) {
      if (keys_[i] == key) {
        deltas_[i] += delta;
        return;
      }
      if (keys_[i] == kEmpty) {
        keys_[i] = key;
        deltas_[i] = delta;
        used_.push_back(static_cast<std::uint32_t>(i));
        return;
      }
    }
  }

  // Empties the map, keeping its storage.
  void Clear() {
    for (std::uint32_t i : used_) keys_[i] = kEmpty;
    used_.clear();
    empty_delta_ = 0;
  }

  // Calls f(key, delta) for every key with a non-zero delta.
  template <typename F>
  void ForEach(F&& f) const {
    for (std::uint32_t i : used_) {
      if (deltas_[i] != 0) f(keys_[i], deltas_[i]);
    }
    if (empty_delta_ != 0) f(kEmpty, empty_delta_);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  void Grow() {
    std::vector<std::uint64_t> old_keys;
    std::vector<std::int64_t> old_deltas;
    old_keys.reserve(used_.size());
    old_deltas.reserve(used_.size());
    for (std::uint32_t i : used_) {
      old_keys.push_back(keys_[i]);
      old_deltas.push_back(deltas_[i]);
    }
    const std::size_t size = keys_.empty() ? 16 : keys_.size() * 2;
    keys_.assign(size, kEmpty);
    deltas_.resize(size);
    used_.clear();
    const std::size_t mask = size - 1;
    for (std::size_t k = 0; k < old_keys.size(); ++k) {
      std::size_t i = internal::HashU64(old_keys[k]) & mask;
      while (keys_[i] != kEmpty) i = (i + 1) & mask;
      keys_[i] = old_keys[k];
      deltas_[i] = old_deltas[k];
      used_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::vector<std::uint64_t> keys_;  // power-of-two size, kEmpty = free
  std::vector<std::int64_t> deltas_;
  std::vector<std::uint32_t> used_;  // filled slots, in fill order
  std::int64_t empty_delta_ = 0;     // the delta of the key kEmpty
};

// A multiset of 64-bit keys: a count per key, the key dropped when its
// count returns to 0 (backward-shift deletion, so no tombstones build
// up). For a census that follows the values present under O(changes)
// updates instead of re-inserting every value each round (distsim's
// distinct_values): the table grows only when the number of distinct
// keys present reaches a new high, so a run stops allocating once it
// has passed its most diverse round. Counts must never go negative.
class U64Multiset {
 public:
  void Add(std::uint64_t key, std::int64_t delta) {
    if (delta == 0) return;
    if (key == kEmpty) {
      empty_count_ += delta;
      return;
    }
    if ((size_ + 1) * 2 > keys_.size()) Grow();
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = internal::HashU64(key) & mask;
    while (keys_[i] != key && keys_[i] != kEmpty) i = (i + 1) & mask;
    if (keys_[i] == kEmpty) {
      keys_[i] = key;
      counts_[i] = 0;
      ++size_;
    }
    counts_[i] += delta;
    if (counts_[i] == 0) Erase(i);
  }

  // Distinct keys present.
  std::size_t size() const { return size_ + (empty_count_ > 0 ? 1 : 0); }

  // Calls f(key) for every key present, in table order.
  template <typename F>
  void ForEach(F&& f) const {
    for (std::uint64_t key : keys_) {
      if (key != kEmpty) f(key);
    }
    if (empty_count_ > 0) f(kEmpty);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  // Frees slot i, shifting back any later entry of its probe run that
  // may not sit past the hole.
  void Erase(std::size_t i) {
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t j = (i + 1) & mask; keys_[j] != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t home = internal::HashU64(keys_[j]) & mask;
      // The entry at j stays iff its home lies cyclically in (i, j].
      const bool stays = i <= j ? (i < home && home <= j)
                                : (i < home || home <= j);
      if (stays) continue;
      keys_[i] = keys_[j];
      counts_[i] = counts_[j];
      i = j;
    }
    keys_[i] = kEmpty;
    --size_;
  }

  void Grow() {
    std::vector<std::uint64_t> old_keys;
    std::vector<std::int64_t> old_counts;
    old_keys.swap(keys_);
    old_counts.swap(counts_);
    const std::size_t size = old_keys.empty() ? 16 : old_keys.size() * 2;
    keys_.assign(size, kEmpty);
    counts_.resize(size);
    const std::size_t mask = size - 1;
    for (std::size_t k = 0; k < old_keys.size(); ++k) {
      if (old_keys[k] == kEmpty) continue;
      std::size_t i = internal::HashU64(old_keys[k]) & mask;
      while (keys_[i] != kEmpty) i = (i + 1) & mask;
      keys_[i] = old_keys[k];
      counts_[i] = old_counts[k];
    }
  }

  std::vector<std::uint64_t> keys_;  // power-of-two size, kEmpty = free
  std::vector<std::int64_t> counts_;
  std::size_t size_ = 0;           // occupied slots
  std::int64_t empty_count_ = 0;   // the count of the key kEmpty
};

}  // namespace kcore::util
