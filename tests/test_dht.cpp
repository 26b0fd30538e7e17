// Tests for the DHT key-value layer on top of stabilized Re-Chord:
// responsibility, replication, the data plane of churn (migration on join,
// handoff on leave, loss + re-replication on crash), and Fact 2.1's
// usability claim on the live router -- every get from any origin finds its
// record in O(log n) hops at the fixpoint.

#include "dht/kv_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/churn.hpp"
#include "core/convergence.hpp"
#include "core/spec.hpp"
#include "gen/topologies.hpp"
#include "ident/hashing.hpp"
#include "net/request_engine.hpp"
#include "test_util.hpp"

namespace rechord::dht {
namespace {

core::Engine stable_engine(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  core::Engine engine(
      gen::make_network(gen::Topology::kRandomConnected, n, rng), {});
  const auto spec = core::StableSpec::compute(engine.network());
  EXPECT_TRUE(core::run_to_stable(engine, spec, {}).stabilized);
  return engine;
}

void resettle(core::Engine& engine) {
  engine.reset_change_tracking();
  const auto spec = core::StableSpec::compute(engine.network());
  ASSERT_TRUE(core::run_to_stable(engine, spec, {}).stabilized);
}

std::string key_name(int i) { return "key-" + std::to_string(i); }

/// Seeds `count` records the way a resolved live put leaves them: one copy
/// at the key's responsible owner (net::RequestEngine calls put_at there).
void seed_keys(KvStore& kv, const RoutingView& view, int count) {
  for (int i = 0; i < count; ++i)
    kv.put_at(view.responsible(ident::hash_name(key_name(i))), key_name(i),
              "v");
}

/// True when the key's responsible owner holds it -- what a live get that
/// reaches that owner finds.
bool found_at_home(const KvStore& kv, const RoutingView& view,
                   const std::string& key) {
  return kv.get_at(view.responsible(ident::hash_name(key)), key) != nullptr;
}

TEST(RoutingView, ResponsibleIsClockwiseSuccessor) {
  auto engine = stable_engine(16, 1);
  const auto view = RoutingView::snapshot(engine.network());
  const core::RingPos h = ident::hash_name("some-key");
  const std::uint32_t owner = view.responsible(h);
  // No live peer lies strictly between h and the responsible peer.
  const core::RingPos d =
      ident::cw_dist(h, engine.network().owner_pos(owner));
  for (auto o : engine.network().live_owners())
    EXPECT_GE(ident::cw_dist(h, engine.network().owner_pos(o)), d);
}

TEST(RoutingView, ReplicaSetDistinctAndOrdered) {
  auto engine = stable_engine(12, 2);
  const auto view = RoutingView::snapshot(engine.network());
  const auto set = view.replica_set(ident::hash_name("k"), 4);
  ASSERT_EQ(set.size(), 4U);
  for (std::size_t i = 0; i < set.size(); ++i)
    for (std::size_t j = i + 1; j < set.size(); ++j)
      EXPECT_NE(set[i], set[j]);
  EXPECT_EQ(set[0], view.responsible(ident::hash_name("k")));
}

TEST(RoutingView, ReplicaSetCappedByPeerCount) {
  auto engine = stable_engine(3, 3);
  const auto view = RoutingView::snapshot(engine.network());
  EXPECT_EQ(view.replica_set(ident::hash_name("k"), 8).size(), 3U);
}

/// The placement rule as first written, kept as the test-side reference:
/// every live owner, sorted by clockwise distance from h.
std::vector<std::uint32_t> clockwise_sort_reference(const core::Network& net,
                                                    core::RingPos h) {
  std::vector<std::uint32_t> order = net.live_owners();
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ident::cw_dist(h, net.owner_pos(a)) <
           ident::cw_dist(h, net.owner_pos(b));
  });
  return order;
}

TEST(RoutingView, MatchesClockwiseSortReference) {
  util::Rng rng(28);
  for (const std::size_t n : {1, 2, 5, 64, 600}) {
    const auto ids = gen::random_ids(rng, n);
    core::Network net{std::span<const core::RingPos>(ids)};
    std::vector<std::uint32_t> victims(n);
    for (std::uint32_t o = 0; o < n; ++o) victims[o] = o;
    rng.shuffle(victims);
    for (std::size_t i = 0; i < n / 3; ++i) core::crash(net, victims[i]);
    const auto live = net.live_owners();
    ASSERT_EQ(live.size(), n - n / 3);

    std::vector<core::RingPos> keys = {0, UINT64_MAX};
    for (int i = 0; i < 64; ++i) keys.push_back(rng.next());
    for (const std::uint32_t o : live) {
      const core::RingPos at = net.owner_pos(o);
      keys.insert(keys.end(), {at - 1, at, at + 1});
    }

    const auto view = RoutingView::snapshot(net);
    for (const core::RingPos h : keys) {
      const auto ref = clockwise_sort_reference(net, h);
      EXPECT_EQ(view.responsible(h), ref[0]) << "n=" << n << " h=" << h;
      for (const std::size_t r : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, n, n + 1}) {
        const std::vector<std::uint32_t> want(
            ref.begin(), ref.begin() + std::min(r, ref.size()));
        EXPECT_EQ(view.replica_set(h, static_cast<unsigned>(r)), want)
            << "n=" << n << " h=" << h << " replicas=" << r;
      }
    }
  }
}

TEST(KvStore, GetMissingKey) {
  auto engine = stable_engine(8, 5);
  KvStore kv;
  EXPECT_EQ(kv.get_at(engine.network().live_owners()[0], "nope"), nullptr);
  EXPECT_FALSE(kv.any_live_copy("nope", engine.network()));
}

TEST(KvStore, OverwriteKeepsLatestValue) {
  auto engine = stable_engine(8, 6);
  const auto owner = engine.network().live_owners()[2];
  KvStore kv;
  kv.put_at(owner, "k", "old");
  kv.put_at(owner, "k", "new");
  ASSERT_NE(kv.get_at(owner, "k"), nullptr);
  EXPECT_EQ(*kv.get_at(owner, "k"), "new");
  EXPECT_EQ(kv.total_records(), 1U);
}

TEST(KvStore, KeysSpreadAcrossPeers) {
  auto engine = stable_engine(16, 10);
  const auto view = RoutingView::snapshot(engine.network());
  KvStore kv;
  seed_keys(kv, view, 200);
  std::size_t loaded_peers = 0;
  for (auto o : engine.network().live_owners())
    loaded_peers += kv.records_on(o) > 0;
  EXPECT_GE(loaded_peers, 10U);  // consistent hashing balances
}

TEST(KvStore, JoinMigratesArc) {
  auto engine = stable_engine(12, 11);
  KvStore kv;
  seed_keys(kv, RoutingView::snapshot(engine.network()), 100);
  util::Rng rng(1234);
  core::join(engine.network(), rng.next(),
             engine.network().live_owners().front());
  resettle(engine);
  const auto view = RoutingView::snapshot(engine.network());
  kv.rebalance(view);
  // The newcomer owns a 1/13 arc in expectation; every key must sit on its
  // (possibly new) responsible peer.
  for (int i = 0; i < 100; ++i)
    EXPECT_TRUE(found_at_home(kv, view, key_name(i))) << key_name(i);
}

TEST(KvStore, GracefulLeaveHandsOffData) {
  auto engine = stable_engine(12, 12);
  KvStore kv;
  seed_keys(kv, RoutingView::snapshot(engine.network()), 80);
  const auto owners = engine.network().live_owners();
  const auto leaver = owners[owners.size() / 2];
  const std::size_t held = kv.records_on(leaver);
  EXPECT_EQ(kv.handoff(RoutingView::snapshot(engine.network()), leaver), held);
  core::leave_gracefully(engine.network(), leaver);
  resettle(engine);
  const auto view = RoutingView::snapshot(engine.network());
  // The handoff alone already put every record at its new home.
  for (int i = 0; i < 80; ++i)
    EXPECT_TRUE(found_at_home(kv, view, key_name(i))) << i;
  EXPECT_EQ(kv.rebalance(view), 0U);
}

TEST(KvStore, CrashLosesUnreplicatedKeys) {
  auto engine = stable_engine(12, 13);
  KvStore kv;  // replicas = 1
  seed_keys(kv, RoutingView::snapshot(engine.network()), 120);
  const auto owners = engine.network().live_owners();
  const auto victim = owners[3];
  const auto victim_records = kv.records_on(victim);
  ASSERT_GT(victim_records, 0U);
  kv.drop(victim);
  core::crash(engine.network(), victim);
  ASSERT_TRUE(testing::weakly_connected(engine.network()));
  resettle(engine);
  const auto view = RoutingView::snapshot(engine.network());
  kv.rebalance(view);
  std::size_t lost = 0;
  for (int i = 0; i < 120; ++i) {
    const bool alive = kv.any_live_copy(key_name(i), engine.network());
    lost += !alive;
    EXPECT_EQ(found_at_home(kv, view, key_name(i)), alive) << i;
  }
  EXPECT_EQ(lost, victim_records);
}

TEST(KvStore, ReplicationSurvivesCrash) {
  auto engine = stable_engine(12, 14);
  KvStore kv({.replicas = 3});
  seed_keys(kv, RoutingView::snapshot(engine.network()), 120);
  kv.rebalance(RoutingView::snapshot(engine.network()));
  EXPECT_EQ(kv.total_records(), 3U * 120U);
  const auto owners = engine.network().live_owners();
  const auto victim = owners[5];
  kv.drop(victim);
  core::crash(engine.network(), victim);
  ASSERT_TRUE(testing::weakly_connected(engine.network()));
  resettle(engine);
  const auto view = RoutingView::snapshot(engine.network());
  for (int i = 0; i < 120; ++i)  // survivors still hold copies
    EXPECT_TRUE(kv.any_live_copy(key_name(i), engine.network())) << i;
  kv.rebalance(view);  // restore the replication factor
  EXPECT_EQ(kv.total_records(), 3U * 120U);
  for (int i = 0; i < 120; ++i) {
    const std::string key = key_name(i);
    for (std::uint32_t o : view.replica_set(ident::hash_name(key), 3))
      EXPECT_NE(kv.get_at(o, key), nullptr) << key;
  }
}

TEST(KvStore, RebalanceIsIdempotent) {
  auto engine = stable_engine(10, 15);
  const auto view = RoutingView::snapshot(engine.network());
  KvStore kv({.replicas = 2});
  seed_keys(kv, view, 40);
  EXPECT_EQ(kv.rebalance(view), 40U);  // one successor copy per key
  EXPECT_EQ(kv.rebalance(view), 0U);   // second pass moves nothing
}

TEST(KvStore, GetFromReplicaAfterPrimaryDrop) {
  auto engine = stable_engine(10, 16);
  const auto view = RoutingView::snapshot(engine.network());
  KvStore kv({.replicas = 2});
  kv.put_at(view.responsible(ident::hash_name("k")), "k", "v");
  kv.rebalance(view);
  const auto set = view.replica_set(ident::hash_name("k"), 2);
  kv.drop(set[0]);  // primary lost, replica remains (no churn)
  EXPECT_EQ(kv.get_at(set[0], "k"), nullptr);
  ASSERT_NE(kv.get_at(set[1], "k"), nullptr);
  EXPECT_TRUE(kv.any_live_copy("k", engine.network()));
  kv.rebalance(view);  // the replica restores the primary copy
  ASSERT_NE(kv.get_at(set[0], "k"), nullptr);
  EXPECT_EQ(*kv.get_at(set[0], "k"), "v");
}

TEST(KvStore, SinglePeerDegenerateStore) {
  auto engine = stable_engine(1, 17);
  const auto view = RoutingView::snapshot(engine.network());
  KvStore kv({.replicas = 3});
  const auto only = engine.network().live_owners()[0];
  kv.put_at(only, "k", "v");
  kv.rebalance(view);
  EXPECT_EQ(kv.total_records(), 1U);  // replica set capped at one peer
  EXPECT_NE(kv.get_at(only, "k"), nullptr);
}

// Fact 2.1 on the live router: at an exact fixpoint the overlay contains
// Chord, so every hop-by-hop get -- net::RequestEngine routing over each
// owner's published edges, from a random origin -- finds its record within
// c * ceil(log2 n) hops, with c = 1. Measured over stable_network seeds 1-8
// (1000 gets each): max 7-8 hops at n = 256 (ceil(log2 n) = 8; this seed
// reaches 8, so c = 1 is tight there) and 9-10 at n = 2048 (bound 11), mean
// 4.1-4.3 and 5.6-5.8. No wrap-seam exception is needed: every get found its
// record, including those whose path crosses the identifier wrap.
TEST(KvStore, LiveGetsFindEveryKeyInLogarithmicHops) {
  constexpr int kGets = 1000;
  for (const std::size_t n : {256U, 2048U}) {
    core::Engine engine(core::stable_network(n, 5), {});
    KvStore kv;
    seed_keys(kv, RoutingView::snapshot(engine.network()), kGets);
    net::RequestEngine req(engine);
    req.bind_store(&kv);
    util::Rng rng(n);
    const auto owners = engine.network().live_owners();
    for (int i = 0; i < kGets; ++i)
      req.submit_get(key_name(i), owners[rng.below(owners.size())]);
    for (int r = 0; req.inflight() > 0 && r < 200; ++r) {
      engine.step();
      req.on_round();
    }
    ASSERT_EQ(req.inflight(), 0U) << "n=" << n;
    const auto log2n =
        static_cast<std::uint32_t>(std::ceil(std::log2(static_cast<double>(n))));
    std::uint32_t max_hops = 0;
    for (const auto& rec : req.completions()) {
      EXPECT_TRUE(rec.found) << "n=" << n << " " << rec.key;
      max_hops = std::max(max_hops, rec.hops);
    }
    EXPECT_EQ(req.completions().size(), static_cast<std::size_t>(kGets));
    EXPECT_EQ(req.totals().gets_found, static_cast<std::uint64_t>(kGets));
    EXPECT_LE(max_hops, log2n) << "n=" << n;
  }
}

}  // namespace
}  // namespace rechord::dht
