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

  static std::uint64_t Hash(std::uint64_t x) {
    // splitmix64 finalizer: spreads nearby bit patterns (doubles that
    // differ in low mantissa bits) across the table.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

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

}  // namespace kcore::util
