#include "stream/stream.h"

#include <algorithm>
#include <cstdlib>

#include "stream/exact.h"
#include "util/bit.h"
#include "util/logging.h"

namespace gstream {

Stream::Stream(uint64_t domain) : domain_(domain) {
  GSTREAM_CHECK_GE(domain, 1u);
}

void Stream::Append(ItemId item, int64_t delta) {
  GSTREAM_CHECK_LT(item, domain_);
  updates_.push_back(Update{item, delta});
}

void Stream::AppendStream(const Stream& other) {
  GSTREAM_CHECK_EQ(domain_, other.domain_);
  // Make geometric growth explicit rather than relying on the stdlib's
  // insert growth policy; never reserve an exact fit smaller than double
  // the current size, which would make a loop of appends quadratic.
  const size_t needed = updates_.size() + other.updates_.size();
  if (needed > updates_.capacity()) {
    updates_.reserve(std::max(needed, 2 * updates_.size()));
  }
  updates_.insert(updates_.end(), other.updates_.begin(),
                  other.updates_.end());
}

bool IsCoalesced(const Update* updates, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (updates[i - 1].item >= updates[i].item) return false;
  }
  return true;
}

void CoalesceBatch(const Update* updates, size_t n, std::vector<Update>* out) {
  std::vector<Update>& v = *out;
  v.assign(updates, updates + n);
  std::sort(v.begin(), v.end(),
            [](const Update& a, const Update& b) { return a.item < b.item; });
  // In-place run fold; the deltas wrap mod 2^64 exactly as the sketch
  // counters they stand in for.
  size_t w = 0;
  for (const Update& u : v) {
    if (w > 0 && v[w - 1].item == u.item) {
      v[w - 1].delta = WrapAdd(v[w - 1].delta, u.delta);
    } else {
      v[w++] = u;
    }
  }
  v.resize(w);
}

std::span<const Update> Coalesced(const Update* updates, size_t n,
                                  std::vector<Update>* scratch) {
  if (IsCoalesced(updates, n)) return {updates, n};
  CoalesceBatch(updates, n, scratch);
  return *scratch;
}

bool Stream::IsInsertionOnly() const {
  for (const Update& u : updates_) {
    if (u.delta != 1) return false;
  }
  return true;
}

int64_t Stream::MaxPrefixFrequency() const {
  FrequencyMap running;
  int64_t max_abs = 0;
  for (const Update& u : updates_) {
    int64_t& v = running[u.item];
    v += u.delta;
    max_abs = std::max<int64_t>(max_abs, std::llabs(v));
  }
  return max_abs;
}

FrequencyMap ExactFrequencies(const Stream& stream) {
  // One batched pass through the mergeable exact sketch -- the ground-truth
  // baseline rides the same hot path the approximate sketches use.
  ExactFrequencySketch sketch;
  ProcessStream(sketch, stream);
  return sketch.Frequencies();
}

}  // namespace gstream
