#include "util/rng.hpp"

#include <algorithm>
#include <unordered_set>

namespace rechord::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zero outputs in a row, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's method with rejection for exact uniformity.
  __extension__ typedef unsigned __int128 u128;
  std::uint64_t x = next();
  u128 m = static_cast<u128>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<u128>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  p = std::clamp(p, 0.0, 1.0);
  return uniform01() < p;
}

Rng Rng::split() noexcept { return Rng(next()); }

std::vector<std::uint64_t> distinct_u64(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(n);
  while (out.size() < n) {
    const std::uint64_t v = rng.next();
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

}  // namespace rechord::util
