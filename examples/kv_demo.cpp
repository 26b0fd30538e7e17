// Distributed key-value store demo: the application layer the paper's
// Fact 2.1 enables. Stores objects on the stabilized overlay through the
// in-network request engine -- every put and get is routed hop by hop over
// the live overlay -- then drives churn through the data plane: join +
// migration, graceful leave + handoff, crash with and without replication.
//
//   ./kv_demo [--n 16] [--keys 60] [--replicas 2] [--seed 21]
//
// Exit code 1 when a live get after rebalance misses an object that still
// had a live copy (with --replicas 1, the objects a crash takes are expected
// losses and do not count).

#include <cstdio>
#include <string>
#include <vector>

#include "core/convergence.hpp"
#include "dht/kv_store.hpp"
#include "gen/topologies.hpp"
#include "net/request_engine.hpp"
#include "util/cli.hpp"

namespace {

using namespace rechord;

void resettle(core::Engine& engine) {
  const auto spec = core::StableSpec::compute(engine.network());
  (void)core::run_to_stable(engine, spec, {});
}

/// Runs rounds until every outstanding request completed; the TTL budget
/// (RequestOptions::ttl_rounds) bounds the wait.
void drain(core::Engine& engine, const net::RequestEngine& req) {
  while (req.inflight() > 0) engine.step();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 16));
  const auto keys = static_cast<int>(cli.get_int("keys", 60));
  const auto replicas = static_cast<unsigned>(cli.get_int("replicas", 2));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 21)));

  std::printf("Bootstrapping %zu peers, stabilizing, then storing %d objects "
              "(replicas=%u)...\n", n, keys, replicas);
  core::Engine engine(
      gen::make_network(gen::Topology::kRandomConnected, n, rng), {});
  resettle(engine);

  dht::KvStore kv({.replicas = replicas});
  net::RequestEngine req(engine);
  req.bind_store(&kv);
  // Every engine round advances the requests one hop, whichever loop ran it.
  engine.set_round_observer([&req](const core::RoundMetrics&) {
    req.on_round();
  });
  const auto rebalance = [&] {
    return kv.rebalance(dht::RoutingView::snapshot(engine.network()));
  };

  std::vector<std::string> objects;
  {
    const auto owners = engine.network().live_owners();
    for (int i = 0; i < keys; ++i) {
      std::string key = "object-" + std::to_string(i);
      req.submit_put(key, "value-" + std::to_string(i),
                     owners[rng.below(owners.size())]);
      objects.push_back(std::move(key));
    }
    drain(engine, req);
    rebalance();
    std::printf("  stored %llu/%d objects, mean %.2f routing hops, %zu "
                "records across the ring\n\n",
                static_cast<unsigned long long>(req.totals().puts_stored),
                keys, req.totals().mean_hops(), kv.total_records());
  }

  std::size_t unexpected = 0;
  // One live get per surviving object, each from a random live origin; every
  // get leaves exactly one completion record.
  const auto check = [&](const char* phase) {
    req.clear_completions();
    const auto owners = engine.network().live_owners();
    for (const auto& key : objects)
      req.submit_get(key, owners[rng.below(owners.size())]);
    drain(engine, req);
    std::size_t found = 0;
    for (const auto& rec : req.completions()) {
      if (rec.found)
        ++found;
      else
        std::printf("       MISSING: %s\n", rec.key.c_str());
    }
    std::printf("       %zu/%zu objects found by live gets after %s\n", found,
                objects.size(), phase);
    unexpected += objects.size() - found;
  };

  // --- join: a newcomer takes over part of the ring ------------------------
  {
    const auto newbie =
        engine.join_peer(rng.next(), engine.network().live_owners()[0]);
    resettle(engine);
    std::printf("join:  peer@%s integrated; %zu records migrated\n",
                ident::pos_to_string(engine.network().owner_pos(newbie)).c_str(),
                rebalance());
    check("join");
  }

  // --- graceful leave: data handed off before departure --------------------
  {
    const auto owners = engine.network().live_owners();
    const auto leaver = owners[owners.size() / 2];
    const auto transferred =
        kv.handoff(dht::RoutingView::snapshot(engine.network()), leaver);
    std::printf("leave: peer@%s hands off %zu records, departs\n",
                ident::pos_to_string(engine.network().owner_pos(leaver)).c_str(),
                transferred);
    engine.leave_peer(leaver);
    resettle(engine);
    rebalance();
    check("leave");
  }

  // --- crash: replication decides survival ---------------------------------
  {
    const auto owners = engine.network().live_owners();
    const auto victim = owners[owners.size() / 3];
    const auto victim_records = kv.records_on(victim);
    kv.drop(victim);
    engine.crash_peer(victim);
    resettle(engine);
    // Objects with no live copy left are gone; only the rest must be found.
    std::erase_if(objects, [&](const std::string& key) {
      return !kv.any_live_copy(key, engine.network());
    });
    rebalance();
    std::printf("crash: peer@%s dies holding %zu records; %zu objects lost "
                "(%s)\n",
                ident::pos_to_string(engine.network().owner_pos(victim)).c_str(),
                victim_records, static_cast<std::size_t>(keys) - objects.size(),
                replicas > 1 ? "replicas absorbed the failure"
                             : "no replicas -> primary copies gone");
    check("re-replication");
  }
  engine.set_round_observer(nullptr);

  if (unexpected > 0) {
    std::printf("\nFAIL: %zu live gets missed objects that had a live copy\n",
                unexpected);
    return 1;
  }
  std::printf("\nOverlay healed to the exact stable topology after every "
              "operation;\nlive hop-by-hop gets found every surviving object "
              "-- the application-level\npayoff of self-stabilization "
              "(Fact 2.1).\n");
  return 0;
}
