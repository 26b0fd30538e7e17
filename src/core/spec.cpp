#include "core/spec.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

#include "ident/ring_pos.hpp"
#include "util/rng.hpp"
#include "util/sorted_vec.hpp"

namespace rechord::core {

namespace {

constexpr std::uint32_t kNoRank = 0xFFFFFFFFU;

std::uint64_t pack(Slot from, Slot to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

void StableSpec::FlatEdges::assign(const std::vector<std::uint64_t>& pairs,
                                   std::uint32_t slots) {
  assert(pairs.size() <= UINT32_MAX);  // 32-bit offsets
  util::bucket_by_key(pairs, slots, off, to);
}

StableSpec StableSpec::compute(const Network& net) {
  StableSpec spec;
  const std::uint32_t slots = net.slot_count();
  const std::vector<std::uint32_t> owners = net.live_owners();
  spec.m_.assign(net.owner_count(), 0);
  spec.rl_.assign(slots, kInvalidSlot);
  spec.rr_.assign(slots, kInvalidSlot);

  // Stable m per owner: the gap to the next distinct live position, wrapping
  // around (a single position spans the full circle -> m = 1).
  std::vector<std::pair<RingPos, std::uint32_t>> by_pos;
  by_pos.reserve(owners.size());
  for (auto o : owners) by_pos.emplace_back(net.owner_pos(o), o);
  std::sort(by_pos.begin(), by_pos.end());
  for (std::size_t i = 0, j = 0; i < by_pos.size(); i = j) {
    const RingPos p = by_pos[i].first;
    while (j < by_pos.size() && by_pos[j].first == p) ++j;
    const RingPos succ = by_pos[j % by_pos.size()].first;
    const int m =
        succ == p ? 1 : ident::exponent_for_gap(ident::cw_dist(p, succ));
    for (std::size_t k = i; k < j; ++k) spec.m_[by_pos[k].second] = m;
  }

  // All spec-alive slots, sorted by the total order once. From here on a
  // node is its rank: rank order is order_key order over the spec nodes, and
  // every candidate below is a spec node.
  std::vector<OrderKey> keys;
  for (auto o : owners)
    for (int i = 0; i <= spec.m_[o]; ++i)
      keys.push_back(net.order_key(slot_of(o, static_cast<std::uint32_t>(i))));
  std::sort(keys.begin(), keys.end());
  auto& nodes = spec.sorted_nodes_;
  nodes.reserve(keys.size());
  for (const OrderKey& k : keys)
    nodes.push_back(static_cast<Slot>(k.tie));  // the tie's low word: the slot
  const auto n = static_cast<std::uint32_t>(nodes.size());

  // First real node after each rank, in linear order (no wrap; the seam is
  // closed by ring edges only).
  std::vector<std::uint32_t> fra(n);
  for (std::uint32_t r = n, run = kNoRank; r-- > 0;) {
    fra[r] = run;
    if (is_real_slot(nodes[r])) run = r;
  }

  // Unmarked edges [last real before, left, right, first real after]: already
  // ascending in rank, so only absent entries and repeats are dropped.
  std::vector<std::uint64_t> pairs;
  pairs.reserve(4 * static_cast<std::size_t>(n));
  for (std::uint32_t r = 0, lrb = kNoRank; r < n; ++r) {
    const Slot s = nodes[r];
    std::uint32_t prev = kNoRank;
    auto emit = [&](std::uint32_t t) {
      if (t == kNoRank || t == prev) return;
      pairs.push_back(pack(s, nodes[t]));
      prev = t;
    };
    emit(lrb);
    if (r > 0) emit(r - 1);
    if (r + 1 < n) emit(r + 1);
    emit(fra[r]);
    spec.rl_[s] = lrb == kNoRank ? kInvalidSlot : nodes[lrb];
    spec.rr_[s] = fra[r] == kNoRank ? kInvalidSlot : nodes[fra[r]];
    if (is_real_slot(s)) lrb = r;
  }
  spec.eu_.assign(pairs, slots);

  // Ring closure: (max -> min) and (min -> max).
  pairs.clear();
  if (n >= 2) {
    pairs.push_back(pack(nodes[n - 1], nodes[0]));
    pairs.push_back(pack(nodes[0], nodes[n - 1]));
  }
  spec.er_.assign(pairs, slots);

  // Connection-edge steady chains per contiguous-sibling pair (a, b):
  // positions x_1..x_k of the pipeline hold (x_l -> b) at every round
  // boundary, where x_1 = a, x_{l+1} = max{ y in euSpec(x_l) ∪ S(owner(x_l))
  // : y < b } and x_k is b's global predecessor (see DESIGN.md). Scanning b
  // by ascending rank keeps last[o] = o's largest node below b for every
  // owner o, so each step is O(1): x itself, its right neighbour, its first
  // real node after and last[owner(x)] are the only candidates that can win
  // (euSpec's other members lie below x). Pairs come out by ascending b, so
  // each slot's ec bucket is already sorted.
  pairs.clear();
  std::vector<std::uint32_t> last(net.owner_count(), kNoRank);
  for (std::uint32_t b = 0; b < n; ++b) {
    const std::uint32_t ob = owner_of(nodes[b]);
    for (std::uint32_t x = last[ob]; x != kNoRank;) {
      std::uint32_t w = x;
      auto consider = [&](std::uint32_t y) {
        if (y < b && y > w) w = y;
      };
      consider(x + 1);
      consider(fra[x]);
      consider(last[owner_of(nodes[x])]);
      if (w == x) break;  // terminal (cedges-2)
      pairs.push_back(pack(nodes[w], nodes[b]));
      x = w;
    }
    last[ob] = b;
  }
  spec.ec_.assign(pairs, slots);
  return spec;
}

bool StableSpec::almost_stable(const Network& net) const {
  for (Slot s : sorted_nodes_) {
    if (!net.alive(s)) return false;
    const auto& have = net.edges(s, EdgeKind::kUnmarked);
    for (Slot want : eu(s))
      if (!std::binary_search(have.begin(), have.end(), want,
                              [&net](Slot a, Slot b) {
                                return net.order_key(a) < net.order_key(b);
                              }))
        return false;
    for (Slot want : er(s))
      if (!net.has_edge(s, EdgeKind::kRing, want)) return false;
  }
  return true;
}

bool StableSpec::exact_match(const Network& net, std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  // Live slots must be exactly the spec nodes.
  std::vector<Slot> live = net.live_slots();
  std::vector<Slot> want = sorted_nodes_;
  std::sort(live.begin(), live.end());
  std::sort(want.begin(), want.end());
  if (live != want) {
    for (Slot s : live)
      if (!std::binary_search(want.begin(), want.end(), s))
        return fail("unexpected live slot " + net.describe(s));
    for (Slot s : want)
      if (!std::binary_search(live.begin(), live.end(), s))
        return fail("missing live slot " + net.describe(s));
  }
  for (Slot s : sorted_nodes_) {
    if (!std::ranges::equal(net.edges(s, EdgeKind::kUnmarked), eu(s)))
      return fail("Eu mismatch at " + net.describe(s));
    if (!std::ranges::equal(net.edges(s, EdgeKind::kRing), er(s)))
      return fail("Er mismatch at " + net.describe(s));
    if (!std::ranges::equal(net.edges(s, EdgeKind::kConnection), ec(s)))
      return fail("Ec mismatch at " + net.describe(s));
    if (net.rl(s) != rl_[s])
      return fail("rl mismatch at " + net.describe(s));
    if (net.rr(s) != rr_[s])
      return fail("rr mismatch at " + net.describe(s));
  }
  return true;
}

std::size_t StableSpec::spec_edge_count(EdgeKind k) const noexcept {
  const FlatEdges& e = k == EdgeKind::kUnmarked ? eu_
                       : k == EdgeKind::kRing   ? er_
                                                : ec_;
  return e.to.size();
}

Network stable_network(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto ids = util::distinct_u64(rng, n);
  Network net{std::span<const RingPos>(ids)};
  const auto spec = StableSpec::compute(net);
  for (Slot s : spec.nodes_in_order()) net.set_alive(s, true);
  for (Slot s : spec.nodes_in_order()) {
    for (Slot t : spec.eu(s)) net.add_edge(s, EdgeKind::kUnmarked, t);
    for (Slot t : spec.er(s)) net.add_edge(s, EdgeKind::kRing, t);
    for (Slot t : spec.ec(s)) net.add_edge(s, EdgeKind::kConnection, t);
    net.set_rl(s, spec.rl(s));
    net.set_rr(s, spec.rr(s));
  }
  return net;
}

}  // namespace rechord::core
