// A flat item -> estimate table for the running top-k of CountSketchTopK.
//
// Entries live densely in one vector of (item, estimate) pairs; an
// open-addressed, linear-probing index of 32-bit slot numbers maps items
// to their dense position.  Inserting never allocates once the table has
// reached its working size (the top-k refresh keeps at most 2k + 1
// entries, so Reserve(2k + 1) up front covers the steady state).  There is
// no per-entry erase: the only removal is RetainIf, which compacts the
// dense array in place and rebuilds the index -- the shape of the top-k
// prune, which drops ~k entries at once.
//
// Iteration order is the dense order (insertion order, compacted).  No
// caller may depend on it: every consumer that reports or serializes
// candidates sorts them first.

#ifndef GSTREAM_SKETCH_CANDIDATE_TABLE_H_
#define GSTREAM_SKETCH_CANDIDATE_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "stream/stream.h"

namespace gstream {

class CandidateTable {
 public:
  using Entry = std::pair<ItemId, int64_t>;

  size_t size() const { return entries_.size(); }
  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

  // Sizes the table so up to `n` entries fit without reallocating.
  void Reserve(size_t n) {
    entries_.reserve(n);
    if (n * 2 > slots_.size()) Rehash(n);
  }

  // Inserts `item` or overwrites its estimate.
  void Assign(ItemId item, int64_t estimate) {
    if ((entries_.size() + 1) * 2 > slots_.size()) Rehash(entries_.size() + 1);
    for (size_t s = Home(item);; s = (s + 1) & mask_) {
      if (slots_[s] == 0) {
        entries_.emplace_back(item, estimate);
        slots_[s] = static_cast<uint32_t>(entries_.size());
        return;
      }
      Entry& e = entries_[slots_[s] - 1];
      if (e.first == item) {
        e.second = estimate;
        return;
      }
    }
  }

  // Keeps exactly the entries for which `keep(entry)` holds.
  template <typename Pred>
  void RetainIf(Pred keep) {
    size_t w = 0;
    for (const Entry& e : entries_) {
      if (keep(e)) entries_[w++] = e;
    }
    entries_.resize(w);
    Reindex();
  }

  void Clear() {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), 0u);
  }

 private:
  size_t Home(ItemId item) const {
    // Fibonacci hashing: the top bits of item * 2^64/phi.
    return static_cast<size_t>((item * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  // Grows the index to the smallest power of two >= 2 * max(n, 8) slots
  // (load factor <= 1/2) and re-inserts every entry.
  void Rehash(size_t n) {
    size_t slots = 16;
    int bits = 4;
    while (slots < 2 * n) {
      slots *= 2;
      ++bits;
    }
    slots_.assign(slots, 0u);
    mask_ = slots - 1;
    shift_ = 64 - bits;
    Reindex();
  }

  void Reindex() {
    std::fill(slots_.begin(), slots_.end(), 0u);
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t s = Home(entries_[i].first);
      while (slots_[s] != 0) s = (s + 1) & mask_;
      slots_[s] = static_cast<uint32_t>(i + 1);
    }
  }

  std::vector<Entry> entries_;
  // Index slots: 0 = empty, otherwise 1 + the entry's dense position.
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace gstream

#endif  // GSTREAM_SKETCH_CANDIDATE_TABLE_H_
