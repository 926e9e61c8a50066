#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "util/logging.h"

namespace e2ebench {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// A seeded bijection of [0, domain) for power-of-two domains: index k of a
// generated population maps to a scattered, collision-free item id.
class IdMap {
 public:
  IdMap(uint64_t domain, Prng& prng)
      : mask_(domain - 1), a_(prng.Next() | 1), b_(prng.Next()) {
    GSTREAM_CHECK(domain >= 2 && (domain & (domain - 1)) == 0);
  }
  gstream::ItemId operator()(uint64_t k) const { return (a_ * k + b_) & mask_; }

 private:
  uint64_t mask_, a_, b_;
};

gstream::FrequencyMap NonZero(const std::vector<int64_t>& counts,
                              const IdMap& ids) {
  gstream::FrequencyMap freq;
  freq.reserve(counts.size());
  for (size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] != 0) freq.emplace(ids(k), counts[k]);
  }
  return freq;
}

}  // namespace

Prng::Prng(uint64_t seed) {
  uint64_t x = seed;
  for (uint64_t& word : s_) word = SplitMix64(x);
}

uint64_t Prng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Prng::Below(uint64_t bound) {
  // Lemire's multiply-shift with rejection: unbiased for any bound.
  for (;;) {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(Next()) * bound;
    const uint64_t low = static_cast<uint64_t>(m);
    if (low >= bound || low >= (0 - bound) % bound) {
      return static_cast<uint64_t>(m >> 64);
    }
  }
}

int64_t Prng::Between(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo) + 1));
}

double Prng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

Input MakeZipfInput(const ZipfShape& shape, uint64_t seed) {
  Prng prng(seed ^ 0x5a19f00dULL);
  const IdMap ids(shape.domain, prng);
  GSTREAM_CHECK(shape.ranks <= shape.domain);
  std::vector<double> cdf(shape.ranks);
  double total = 0.0;
  for (size_t r = 0; r < shape.ranks; ++r) {
    total += std::pow(static_cast<double>(r + 1), -shape.exponent);
    cdf[r] = total;
  }
  std::vector<int64_t> counts(shape.ranks, 0);
  Input input;
  input.stream = gstream::Stream(shape.domain);
  input.stream.Reserve(shape.updates);
  for (size_t i = 0; i < shape.updates; ++i) {
    const double u = prng.Unit() * total;
    const size_t rank = std::min<size_t>(
        static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()),
        shape.ranks - 1);
    int64_t delta = 1;
    if (prng.Unit() < shape.turnstile_share) {
      delta = prng.Between(1, 3) * ((prng.Next() & 1) ? 1 : -1);
    }
    counts[rank] += delta;
    input.stream.Append(ids(rank), delta);
  }
  input.frequencies = NonZero(counts, ids);
  return input;
}

Input MakeClickInput(const ClickShape& shape, uint64_t seed) {
  Prng prng(seed ^ 0xc11c5ULL);
  const IdMap ids(shape.domain, prng);
  const size_t population = shape.users + shape.enthusiasts + shape.bots;
  GSTREAM_CHECK(population <= shape.domain);
  std::vector<int64_t> counts(shape.domain, 0);
  std::vector<gstream::Update> log;
  auto clicks = [&](size_t begin, size_t end, int64_t lo, int64_t hi) {
    for (size_t k = begin; k < end; ++k) {
      const int64_t c = prng.Between(lo, hi);
      counts[k] = c;
      for (int64_t j = 0; j < c; ++j) log.push_back({ids(k), 1});
    }
  };
  clicks(0, shape.users, 1, 12);
  clicks(shape.users, shape.users + shape.enthusiasts, 13, 40);
  clicks(shape.users + shape.enthusiasts, population, 500, 5000);
  for (size_t p = 0; p < shape.churn_pairs; ++p) {
    const gstream::ItemId id = ids(prng.Below(shape.domain));
    log.push_back({id, 1});
    log.push_back({id, -1});
  }
  for (size_t i = log.size(); i > 1; --i) {
    std::swap(log[i - 1], log[prng.Below(i)]);
  }
  Input input;
  input.stream = gstream::Stream(shape.domain);
  input.stream.Reserve(log.size());
  for (const gstream::Update& u : log) input.stream.Append(u.item, u.delta);
  input.frequencies = NonZero(counts, ids);
  return input;
}

bool WriteStreamText(const gstream::Stream& stream, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "gstream-v1 %llu\n",
                         static_cast<unsigned long long>(stream.domain())) > 0;
  for (const gstream::Update& u : stream.updates()) {
    if (!ok) break;
    ok = std::fprintf(f, "%llu %lld\n", static_cast<unsigned long long>(u.item),
                      static_cast<long long>(u.delta)) > 0;
  }
  return (std::fclose(f) == 0) && ok;
}

}  // namespace e2ebench
