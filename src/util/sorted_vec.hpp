#pragma once
// Sorted-unique vector insertion and bulk bucketing, shared by the
// append-only index structures (the network's reader index, the engine's
// op-sender index) and their mass rebuilds.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace rechord::util {

/// Inserts `value` into the ascending-sorted `v` unless already present;
/// returns true when inserted.
template <typename T>
bool insert_sorted_unique(std::vector<T>& v, const T& value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it != v.end() && *it == value) return false;
  v.insert(it, value);
  return true;
}

/// Counting-sort scatter of packed (key << 32) | value pairs by key:
/// after the call, bucket k's values sit in `out[counts[k] .. counts[k+1])`
/// in input order (not sorted, not deduplicated -- callers post-process per
/// bucket as needed). One histogram pass + one scatter pass, O(pairs +
/// buckets). Every key must be < `buckets`, and `Count` must hold
/// `pairs.size()`.
template <typename Count>
void bucket_by_key(const std::vector<std::uint64_t>& pairs,
                   std::uint32_t buckets, std::vector<Count>& counts,
                   std::vector<std::uint32_t>& out) {
  counts.assign(buckets + 1, 0);
  for (std::uint64_t p : pairs) ++counts[(p >> 32) + 1];
  for (std::uint32_t b = 0; b < buckets; ++b) counts[b + 1] += counts[b];
  std::vector<Count> cursor(counts.begin(), counts.end() - 1);
  out.resize(pairs.size());
  for (std::uint64_t p : pairs)
    out[cursor[p >> 32]++] = static_cast<std::uint32_t>(p & 0xFFFFFFFFu);
}

}  // namespace rechord::util
