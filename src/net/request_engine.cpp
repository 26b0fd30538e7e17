#include "net/request_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/worker_pool.hpp"
#include "dht/kv_store.hpp"
#include "ident/hashing.hpp"
#include "ident/ring_pos.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace rechord::net {

namespace {
/// Logical custody shards (DESIGN.md §10.1). Part of the determinism
/// contract: a different shard count reorders the per-round completion
/// sequence (and therefore the fingerprint), like a different request seed.
constexpr std::uint32_t kShards = 16;
constexpr std::uint32_t kNoPayload = UINT32_MAX;
/// uid of a free slot (uids count up from 0 and never reach it).
constexpr std::uint64_t kNoUid = UINT64_MAX;
constexpr std::uint64_t kSaltDelay = 0xDE1A11ULL;
constexpr std::uint64_t kSaltLoss = 0x10551ULL;
}  // namespace

const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::kInFlight: return "in-flight";
    case RequestStatus::kResolved: return "resolved";
    case RequestStatus::kFailedStaleRouting: return "stale-routing";
    case RequestStatus::kFailedPartitionLost: return "partition-lost";
    case RequestStatus::kFailedTimeout: return "timeout";
  }
  return "?";
}

const char* request_kind_name(RequestKind k) {
  switch (k) {
    case RequestKind::kLookup: return "lookup";
    case RequestKind::kKvPut: return "kv-put";
    case RequestKind::kKvGet: return "kv-get";
  }
  return "?";
}

RequestEngine::RequestEngine(core::Engine& engine, RequestOptions opt)
    : engine_(engine), opt_(opt), round_(engine.rounds_executed()) {
  if (opt_.hop_cap == 0) opt_.hop_cap = 1;
  if (opt_.ttl_rounds == 0) opt_.ttl_rounds = 1;
  shards_.resize(kShards);
}

std::uint64_t RequestEngine::hop_hash(std::uint64_t id, std::uint32_t attempt,
                                      std::uint64_t salt) const noexcept {
  return util::mix64(opt_.seed ^ salt ^
                     util::mix64(id * 0x9E3779B97F4A7C15ULL + attempt));
}

// -- slot / payload pools ----------------------------------------------------

void RequestEngine::SlotArrays::grow_one() {
  uid.push_back(kNoUid);
  key.push_back(0);
  issue_round.push_back(0);
  origin.push_back(0);
  custody.push_back(0);
  hop_to.push_back(kNoOwner);
  avoid.push_back(kNoOwner);
  hops.push_back(0);
  retries.push_back(0);
  attempt.push_back(0);
  kind.push_back(0);
  phase.push_back(0);
  obstruction.push_back(0);
  payload.push_back(kNoPayload);
}

std::uint32_t RequestEngine::alloc_slot() {
  if (!slot_free_.empty()) {
    const std::uint32_t s = slot_free_.back();
    slot_free_.pop_back();
    return s;
  }
  slots_.grow_one();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void RequestEngine::free_slot(std::uint32_t slot) {
  slots_.uid[slot] = kNoUid;
  const std::uint32_t p = slots_.payload[slot];
  if (p != kNoPayload) {
    payloads_[p].key.clear();
    payloads_[p].value.clear();
    payload_free_.push_back(p);
    slots_.payload[slot] = kNoPayload;
  }
  slot_free_.push_back(slot);
  --outstanding_;
}

// -- submission --------------------------------------------------------------

std::uint64_t RequestEngine::submit(RequestKind kind, RingPos key,
                                    std::uint32_t origin, std::string kv_key,
                                    std::string kv_value) {
  const std::uint32_t slot = alloc_slot();
  const std::uint64_t id = next_uid_++;
  slots_.uid[slot] = id;
  slots_.key[slot] = key;
  slots_.issue_round[slot] = engine_.rounds_executed();
  slots_.origin[slot] = origin;
  slots_.custody[slot] = origin;
  slots_.hop_to[slot] = kNoOwner;
  slots_.avoid[slot] = kNoOwner;
  slots_.hops[slot] = 0;
  slots_.retries[slot] = 0;
  slots_.attempt[slot] = 0;
  slots_.kind[slot] = static_cast<std::uint8_t>(kind);
  slots_.phase[slot] = kForward;
  slots_.obstruction[slot] = kObsNone;
  if (kind != RequestKind::kLookup) {
    std::uint32_t p;
    if (!payload_free_.empty()) {
      p = payload_free_.back();
      payload_free_.pop_back();
    } else {
      p = static_cast<std::uint32_t>(payloads_.size());
      payloads_.emplace_back();
    }
    payloads_[p].key = std::move(kv_key);
    payloads_[p].value = std::move(kv_value);
    slots_.payload[slot] = p;
  }
  ++outstanding_;
  ++totals_.issued;
  park(origin, slot);
  {
    // Serial context (submissions happen between rounds), so the event
    // goes straight to the global tracer.
    util::Tracer& tr = util::Tracer::instance();
    if (tr.enabled())
      tr.note({engine_.rounds_executed(), id,
               static_cast<std::uint64_t>(kind), key, origin, 0,
               util::TraceKind::kReqIssue});
  }
  return id;
}

std::uint64_t RequestEngine::submit_lookup(RingPos key, std::uint32_t origin) {
  return submit(RequestKind::kLookup, key, origin, {}, {});
}

std::uint64_t RequestEngine::submit_put(std::string key, std::string value,
                                        std::uint32_t origin) {
  const RingPos h = ident::hash_name(key);
  return submit(RequestKind::kKvPut, h, origin, std::move(key),
                std::move(value));
}

std::uint64_t RequestEngine::submit_get(std::string key,
                                        std::uint32_t origin) {
  const RingPos h = ident::hash_name(key);
  return submit(RequestKind::kKvGet, h, origin, std::move(key), {});
}

std::optional<std::uint32_t> RequestEngine::custody_of(
    std::uint64_t id) const {
  if (id == kNoUid) return std::nullopt;
  const auto it = std::find(slots_.uid.begin(), slots_.uid.end(), id);
  if (it == slots_.uid.end()) return std::nullopt;
  return slots_.custody[static_cast<std::size_t>(it - slots_.uid.begin())];
}

// -- routing rule ------------------------------------------------------------

void build_row(const core::Network& net, std::uint32_t owner, NbrRow& out) {
  // The per-owner row of the real projection (§2.2), read from the CURRENT
  // edge sets: live owners reachable over any live slot's unmarked/ring
  // edges to real slots. normalize() ran at the end of the round, so no
  // target references a dead owner here -- dead next-hops are only ever
  // observed by hops already in flight when the owner died.
  out.clear();
  for (std::uint32_t i = 0; i < core::kSlotsPerOwner; ++i) {
    const core::Slot s = core::slot_of(owner, i);
    if (!net.alive(s)) continue;
    for (const core::EdgeKind k :
         {core::EdgeKind::kUnmarked, core::EdgeKind::kRing}) {
      for (const core::Slot t : net.edges(s, k)) {
        if (!core::is_real_slot(t) || !net.alive(t)) continue;
        const std::uint32_t w = core::owner_of(t);
        // first = owner id for the dedupe sort; replaced by the ring
        // position below, then re-sorted into position order.
        if (w != owner) out.emplace_back(RingPos{w}, w);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  for (auto& [pos, w] : out) pos = net.owner_pos(w);
  std::sort(out.begin(), out.end());
}

NextHop next_hop(const NbrRow& row, RingPos cur, RingPos key, bool settle,
                 std::uint32_t avoid) {
  // NOTE(no-ownership-shortcut): a Re-Chord peer has NO reliable leftward
  // pointer -- even at the exact fixpoint a real slot's published rl can be
  // invalid (the region behind a node is covered by its predecessors'
  // virtual chains, not by its own state), and the projection need not
  // contain a predecessor edge. Chord's local "key in (pred, self]"
  // ownership test is therefore unsound here; an edge-derived predecessor
  // estimate can sit half a ring away and swallow foreign keys. Instead a
  // request ALWAYS routes forward and completes from the predecessor side:
  // the settle phase ends exactly when the custody owner is the closest
  // known clockwise successor of the key. A key just behind its origin
  // takes the trip around the ring, like Chord without predecessor
  // pointers -- O(log n) finger hops, each a real round.
  //
  // Selection over the position-sorted row. The routing rules ask for
  // circular argmax/argmin around the key, so the candidates are the key's
  // immediate ring neighbors in the sorted order: one lower_bound plus at
  // most a couple of steps (skipping the avoid owner) instead of a linear
  // scan. Owner positions are distinct, so each argmax/argmin has one
  // answer.
  const std::size_t m = row.size();
  if (m == 0) return {};
  // First index at/after the key on the ring, wrapping past the end.
  const auto it = std::lower_bound(
      row.begin(), row.end(), key,
      [](const std::pair<RingPos, std::uint32_t>& e, RingPos v) {
        return e.first < v;
      });
  const std::size_t at_key =
      it == row.end() ? 0 : static_cast<std::size_t>(it - row.begin());
  // After a bounce, pass 0 excludes the avoid owner -- the re-route the
  // dead-hop/partition detection promises -- and pass 1 re-admits it if the
  // exclusion left no usable candidate: retrying the obstructed hop beats
  // reporting a stale dead end. (When avoid is not in the row, pass 0
  // selects exactly what pass 1 would.)
  for (int pass = avoid == kNoOwner ? 1 : 0; pass < 2; ++pass) {
    const std::uint32_t skip = pass == 0 ? avoid : kNoOwner;
    if (!settle) {
      const RingPos d_h = ident::cw_dist(cur, key);
      // Clockwise progress, not past the key: the largest cw_dist(cur, pos)
      // in (0, d_h), i.e. the closest predecessor of the key inside
      // (cur, key). Walk counterclockwise from the key; the walk leaves the
      // interval after at most one avoid skip.
      std::size_t i = (at_key + m - 1) % m;
      for (std::size_t steps = 0; steps < m; ++steps) {
        const RingPos d = ident::cw_dist(cur, row[i].first);
        if (d == 0 || d >= d_h) break;  // at the custody owner / wrapped out
        if (row[i].second != skip) return {NextHop::kHop, row[i].second};
        i = (i + m - 1) % m;
      }
      // Otherwise the smallest cw_dist(cur, pos) >= d_h: the first known
      // owner at/after the key, walking clockwise from the key.
      std::size_t j = at_key;
      for (std::size_t steps = 0; steps < m; ++steps) {
        const RingPos d = ident::cw_dist(cur, row[j].first);
        if (d != 0 && d >= d_h && row[j].second != skip)
          return {NextHop::kSettleHop, row[j].second};
        j = j + 1 == m ? 0 : j + 1;
      }
    } else {
      // Settle: strictly closer clockwise successors of the key only --
      // the smallest cw_dist(key, pos) < cw_dist(key, cur), again the first
      // acceptable element clockwise from the key.
      const RingPos best_d = ident::cw_dist(key, cur);
      std::size_t j = at_key;
      for (std::size_t steps = 0; steps < m; ++steps) {
        // No (further) neighbor beats the custody owner.
        if (ident::cw_dist(key, row[j].first) >= best_d) break;
        if (row[j].second != skip) return {NextHop::kHop, row[j].second};
        j = j + 1 == m ? 0 : j + 1;
      }
      if (pass == 1) return {NextHop::kResolved, kNoOwner};
    }
  }
  return {};  // stuck: no progress anywhere
}

// -- parallel phase ----------------------------------------------------------

const NbrRow& RequestEngine::owner_row(Shard& sh, std::uint32_t owner) {
  // Version-stamped cache: a row stays valid until ANY overlay mutation
  // bumps topology_version(), so at steady state the 65-slot edge scan runs
  // once per owner ever instead of once per parked batch per round. The
  // cached row equals a fresh build_row() bit for bit (the version covers
  // every input: edges, aliveness; owner positions are immutable), so
  // outcomes cannot depend on cache hits -- only the wall clock does.
  const std::uint64_t ver = engine_.network().topology_version();
  const std::size_t i = owner / kShards;
  if (sh.rows.size() <= i) sh.rows.resize(i + 1);
  OwnerRow& row = sh.rows[i];
  if (row.stamp != ver) {
    build_row(engine_.network(), owner, row.nbrs);
    row.stamp = ver;
  }
  return row.nbrs;
}

void RequestEngine::launch_hop(Shard& sh, std::uint32_t slot,
                               std::uint32_t next) {
  ++slots_.attempt[slot];
  std::uint32_t extra = 0;
  if (engine_.latency_installed()) {
    const core::DelayClass& cls = engine_.latency_model().cls(
        engine_.datacenter_of(slots_.custody[slot]),
        engine_.datacenter_of(next));
    if (cls.nonzero())
      extra = cls.draw(
          hop_hash(slots_.uid[slot], slots_.attempt[slot], kSaltDelay));
  }
  slots_.hop_to[slot] = next;
  sh.launches.push_back({slot, next, extra});
  if (tracing_)
    sh.trace.push_back({round_, slots_.uid[slot], slots_.custody[slot], next,
                        extra, slots_.attempt[slot],
                        util::TraceKind::kReqLaunch});
}

void RequestEngine::bounce(Shard& sh, std::uint32_t slot, Obstruction obs) {
  ++slots_.retries[slot];
  slots_.obstruction[slot] = obs;
  slots_.avoid[slot] = slots_.hop_to[slot];
  slots_.hop_to[slot] = kNoOwner;
  if (tracing_)
    sh.trace.push_back({round_, slots_.uid[slot], slots_.custody[slot],
                        slots_.avoid[slot], static_cast<std::uint64_t>(obs),
                        0, util::TraceKind::kReqBounce});
  switch (obs) {
    case kObsLoss: ++sh.tally.loss_bounces; break;
    case kObsPartition: ++sh.tally.partition_bounces; break;
    case kObsDead: ++sh.tally.dead_hop_bounces; break;
    default: break;
  }
  // The sender itself may have died while the hop was in flight. A bounced
  // request reparks through the merge (its sender usually lives in another
  // shard) and re-routes at the NEXT round's advancement.
  if (!engine_.network().owner_alive(slots_.custody[slot]))
    custody_failover(sh, slot);
  else
    sh.reparks.push_back({slot, slots_.custody[slot]});
}

void RequestEngine::custody_failover(Shard& sh, std::uint32_t slot) {
  ++sh.tally.custody_failovers;
  ++slots_.retries[slot];
  if (tracing_)
    sh.trace.push_back({round_, slots_.uid[slot], slots_.custody[slot],
                        slots_.origin[slot], 0, 0,
                        util::TraceKind::kReqFailover});
  if (!engine_.network().owner_alive(slots_.origin[slot])) {
    sh.completions.push_back({slot, RequestStatus::kFailedTimeout});
    return;
  }
  slots_.custody[slot] = slots_.origin[slot];
  slots_.phase[slot] = kForward;
  slots_.avoid[slot] = kNoOwner;
  sh.reparks.push_back({slot, slots_.origin[slot]});
}

void RequestEngine::deliver(Shard& sh, std::uint32_t slot) {
  const std::uint32_t to = slots_.hop_to[slot];
  // Delivery-time checks, mirroring the engine's commit pipeline: the loss
  // coin and the partition cut apply against the state of the DELIVERY
  // round, and a next-hop that died mid-flight is detected here.
  if (util::hash_coin(
          hop_hash(slots_.uid[slot], slots_.attempt[slot], kSaltLoss),
          engine_.options().message_loss)) {
    bounce(sh, slot, kObsLoss);
    return;
  }
  if (engine_.partition_cut_owners(slots_.custody[slot], to)) {
    bounce(sh, slot, kObsPartition);
    return;
  }
  if (!engine_.network().owner_alive(to)) {
    bounce(sh, slot, kObsDead);
    return;
  }
  slots_.custody[slot] = to;
  slots_.hop_to[slot] = kNoOwner;
  slots_.avoid[slot] = kNoOwner;
  slots_.obstruction[slot] = kObsNone;
  ++slots_.hops[slot];
  if (tracing_)
    sh.trace.push_back({round_, slots_.uid[slot], to, slots_.hops[slot], 0,
                        0, util::TraceKind::kReqDeliver});
  // The new custody owner keys this shard's due queue, so the request parks
  // locally and takes its next routing step THIS round (same cadence as the
  // serial engine: deliver, then advance).
  sh.parked.emplace_back(to, slot);
}

void RequestEngine::route_at_owner(Shard& sh, const NbrRow& row,
                                   std::uint32_t slot, RingPos cur) {
  const NextHop h = next_hop(row, cur, slots_.key[slot],
                             slots_.phase[slot] == kSettle, slots_.avoid[slot]);
  switch (h.kind) {
    case NextHop::kSettleHop:
      slots_.phase[slot] = kSettle;
      [[fallthrough]];
    case NextHop::kHop:
      launch_hop(sh, slot, h.to);
      return;
    case NextHop::kResolved:
      sh.completions.push_back({slot, RequestStatus::kResolved});
      return;
    case NextHop::kStuck:
      // Retry next round; the obstruction classifies a budget failure.
      ++slots_.retries[slot];
      slots_.obstruction[slot] = kObsStale;
      if (tracing_)
        sh.trace.push_back({round_, slots_.uid[slot], slots_.custody[slot], 0,
                            0, 0, util::TraceKind::kReqStuck});
      sh.next_parked.emplace_back(slots_.custody[slot], slot);
      return;
  }
}

void RequestEngine::advance_parked(Shard& sh) {
  // Stable group-by custody owner: sort (owner << 32 | parked-index) keys,
  // so requests advance in (owner, insertion-order) order and the owner's
  // routing row is fetched once per GROUP, amortized over every request
  // parked there.
  auto& keys = sh.group_keys;
  keys.clear();
  keys.reserve(sh.parked.size());
  for (std::uint32_t i = 0; i < sh.parked.size(); ++i)
    keys.push_back((static_cast<std::uint64_t>(sh.parked[i].first) << 32) |
                   i);
  std::sort(keys.begin(), keys.end());
  sh.next_parked.clear();
  const core::Network& net = engine_.network();
  std::size_t g = 0;
  while (g < keys.size()) {
    const std::uint32_t owner = static_cast<std::uint32_t>(keys[g] >> 32);
    std::size_t end = g;
    while (end < keys.size() &&
           static_cast<std::uint32_t>(keys[end] >> 32) == owner)
      ++end;
    const bool alive = net.owner_alive(owner);
    const RingPos cur = alive ? net.owner_pos(owner) : RingPos{0};
    const NbrRow* nbrs = nullptr;
    for (std::size_t i = g; i < end; ++i) {
      const std::uint32_t slot =
          sh.parked[static_cast<std::uint32_t>(keys[i])].second;
      // Budget first: a request past its TTL or hop cap fails, classified
      // by what last stood in its way.
      if (round_ - slots_.issue_round[slot] >= opt_.ttl_rounds ||
          slots_.hops[slot] >= opt_.hop_cap) {
        RequestStatus st = RequestStatus::kFailedTimeout;
        if (slots_.obstruction[slot] == kObsStale)
          st = RequestStatus::kFailedStaleRouting;
        else if (slots_.obstruction[slot] == kObsPartition)
          st = RequestStatus::kFailedPartitionLost;
        sh.completions.push_back({slot, st});
        continue;
      }
      // A request parked on a crashed owner re-routes from its origin
      // instead of hanging (one round of "timeout detection" latency).
      if (!alive) {
        custody_failover(sh, slot);
        continue;
      }
      if (ident::cw_dist(cur, slots_.key[slot]) == 0) {
        // Custody sits exactly at the key.
        sh.completions.push_back({slot, RequestStatus::kResolved});
        continue;
      }
      if (nbrs == nullptr) nbrs = &owner_row(sh, owner);
      route_at_owner(sh, *nbrs, slot, cur);
    }
    g = end;
  }
  sh.parked.swap(sh.next_parked);
}

void RequestEngine::process_shard(Shard& sh) {
  // 1. Hop deliveries due at this shard's owners this round, in emission
  // order (successful ones park locally and advance below).
  sh.deliver_buf.clear();
  if (!sh.due.empty()) {
    sh.deliver_buf.swap(sh.due.front());
    sh.due.pop_front();
  }
  for (const std::uint32_t slot : sh.deliver_buf) deliver(sh, slot);
  // 2. One batched routing step per custody owner over its parked requests.
  advance_parked(sh);
}

// -- round driver ------------------------------------------------------------

void RequestEngine::on_round() {
  round_ = engine_.rounds_executed();
  if (outstanding_ == 0) return;
  tracing_ = util::Tracer::instance().enabled();
  const unsigned shard_count = static_cast<unsigned>(shards_.size());
  const unsigned ways = std::min(engine_.options().threads, shard_count);
  {
    util::ScopedPhase span(util::Phase::kReqShardAdvance);
    if (ways <= 1) {
      for (Shard& sh : shards_) process_shard(sh);
    } else {
      // Stride the logical shards over the engine's workers: worker t takes
      // shards t, t+ways, ... Shard assignment keys on data (custody owner),
      // never on the thread, so the thread count cannot reorder anything.
      core::WorkerPool& pool = engine_.shared_worker_pool(ways);
      pool.run(ways, [this, ways, shard_count](unsigned t) {
        for (unsigned s = t; s < shard_count; s += ways)
          process_shard(shards_[s]);
      });
    }
  }
  util::ScopedPhase span(util::Phase::kReqMerge);
  merge_round();
}

void RequestEngine::merge_round() {
  // Serial, shard-major: completions fold into totals/fingerprint/KV in
  // shard order (then per-shard emission order), launched hops land in
  // their TARGET shard's due queue, bounced/failed-over requests repark at
  // their new custody shard. Deterministic for a fixed shard count
  // regardless of how many threads ran the phase.
  for (Shard& sh : shards_) {
    // Drain this shard's trace buffer FIRST: its hop events precede its
    // completion events, and shard-major order keeps the stream identical
    // across thread counts.
    if (tracing_ && !sh.trace.empty())
      util::Tracer::instance().note_all(sh.trace);
    for (const Completion& c : sh.completions) finish(c.slot, c.status);
    totals_.loss_bounces += sh.tally.loss_bounces;
    totals_.partition_bounces += sh.tally.partition_bounces;
    totals_.dead_hop_bounces += sh.tally.dead_hop_bounces;
    totals_.custody_failovers += sh.tally.custody_failovers;
    for (const Launch& l : sh.launches) {
      Shard& dst = shards_[shard_of(l.to)];
      while (dst.due.size() <= l.delay) dst.due.emplace_back();
      dst.due[l.delay].push_back(l.slot);
    }
    for (const Repark& r : sh.reparks)
      shards_[shard_of(r.owner)].parked.emplace_back(r.owner, r.slot);
    sh.completions.clear();
    sh.launches.clear();
    sh.reparks.clear();
    sh.tally = ShardTally{};
  }
  prune_mono_ledger();
}

// -- completion side effects (serial merge only) -----------------------------

void RequestEngine::mono_resolved(RingPos key, std::uint32_t result) {
  mono_.put(key, round_, result);
}

void RequestEngine::mono_unresolved(RingPos key, std::uint32_t origin) {
  const std::optional<MonoEntry> e = mono_.find(key);
  if (!e) return;
  // "Resolved at round r, unresolved at r' > r, both endpoints alive."
  if (e->round < round_ && engine_.network().owner_alive(e->owner) &&
      engine_.network().owner_alive(origin))
    ++totals_.mono_violations;
}

void RequestEngine::prune_mono_ledger() {
  if (opt_.mono_ledger_cap == 0 || mono_.size() <= opt_.mono_ledger_cap)
    return;
  // Deterministic eviction: drop the entries with the OLDEST resolution
  // rounds (ties by key) down to 3/4 of the cap, so steady load doesn't
  // re-prune every round. Pruned keys can no longer witness a violation --
  // the documented trade for bounded memory under open-loop load.
  const std::size_t target = opt_.mono_ledger_cap - opt_.mono_ledger_cap / 4;
  totals_.mono_ledger_pruned += mono_.size() - target;
  prune_oldest(mono_, mono_.size() - target);
}

// -- monotonic-searchability ledger ----------------------------------------

std::optional<MonoEntry> MonoLedger::find(RingPos key) const noexcept {
  if (size_ == 0) return std::nullopt;
  const std::size_t mask = cells_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Cell& c = cells_[i];
    if (c.round == kEmpty) return std::nullopt;
    if (c.key == key) return MonoEntry{c.round, c.owner};
  }
}

void MonoLedger::put(RingPos key, std::uint64_t round, std::uint32_t owner) {
  if (round > kMaxRound)
    throw std::overflow_error("MonoLedger: round " + std::to_string(round) +
                              " exceeds the 32-bit bound");
  // Load limit 3/4: a 2^20-capped ledger plus one round of new keys fits in
  // 2^21 cells (DESIGN.md §10.2).
  if (4 * (size_ + 1) > 3 * cells_.size()) grow();
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = home(key);
  while (cells_[i].round != kEmpty && cells_[i].key != key) i = (i + 1) & mask;
  if (cells_[i].round == kEmpty) ++size_;
  cells_[i] = {key, static_cast<std::uint32_t>(round), owner};
}

void MonoLedger::clear() noexcept {
  for (Cell& c : cells_) c.round = kEmpty;
  size_ = 0;
}

void MonoLedger::grow() {
  std::vector<Cell> old = std::move(cells_);
  const std::size_t n = old.empty() ? 64 : 2 * old.size();
  cells_.assign(n, Cell{0, kEmpty, 0});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
  const std::size_t mask = n - 1;
  for (const Cell& c : old) {
    if (c.round == kEmpty) continue;
    std::size_t i = home(c.key);
    while (cells_[i].round != kEmpty) i = (i + 1) & mask;
    cells_[i] = c;
  }
}

void MonoLedger::erase_at(std::size_t i) noexcept {
  const std::size_t mask = cells_.size() - 1;
  // Back-shift deletion: pull each later entry of the run into the hole
  // unless its home lies cyclically in (hole, entry] -- it would then sit
  // before its home.
  for (std::size_t j = (i + 1) & mask; cells_[j].round != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t h = home(cells_[j].key);
    if (((j - h) & mask) >= ((j - i) & mask)) {
      cells_[i] = cells_[j];
      i = j;
    }
  }
  cells_[i].round = kEmpty;
  --size_;
}

void prune_oldest(MonoLedger& ledger, std::size_t drop) {
  if (drop >= ledger.size()) {
    ledger.clear();
    return;
  }
  if (drop == 0) return;
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  ledger.for_each([&](RingPos, const MonoEntry& e) {
    lo = std::min(lo, e.round);
    hi = std::max(hi, e.round);
  });
  // Radix select of the drop-th smallest round, on round - lo, most
  // significant 16-bit digit first. `prefix` holds the digits fixed so far
  // and `need` the cut's rank among the entries that share them; after the
  // last pass the cut round is lo + prefix and `need` of its entries go.
  constexpr unsigned kDigit = 16;
  const unsigned bits = static_cast<unsigned>(std::bit_width(hi - lo));
  const unsigned top = bits > kDigit ? (bits - 1) / kDigit * kDigit : 0;
  std::vector<std::uint32_t> hist(std::size_t{1} << kDigit);
  std::uint64_t prefix = 0;
  std::size_t need = drop;
  for (unsigned shift = top;; shift -= kDigit) {
    std::fill(hist.begin(), hist.end(), 0);
    ledger.for_each([&](RingPos, const MonoEntry& e) {
      const std::uint64_t rel = e.round - lo;
      if (shift != top && (rel >> (shift + kDigit)) != prefix) return;
      ++hist[(rel >> shift) & (hist.size() - 1)];
    });
    std::size_t d = 0;
    for (; hist[d] < need; ++d) need -= hist[d];
    prefix = (prefix << kDigit) | d;
    if (shift == 0) break;
  }
  const std::uint64_t cut = lo + prefix;
  // Keys are unique, so "the first `need` keys of the cut round" are the
  // ones at or below its need-th smallest key.
  RingPos cut_key = 0;
  if (need > 0) {
    std::vector<RingPos> keys;
    ledger.for_each([&](RingPos key, const MonoEntry& e) {
      if (e.round == cut) keys.push_back(key);
    });
    std::nth_element(keys.begin(), keys.begin() + (need - 1), keys.end());
    cut_key = keys[need - 1];
  }
  const auto goes = [&](const MonoLedger::Cell& c) {
    return c.round < cut || (c.round == cut && need > 0 && c.key <= cut_key);
  };
  // A back-shift moves entries only backward within their run: into the
  // cell under the sweep (re-checked), into cells ahead of it, or -- for a
  // run wrapping past the last cell -- between cells the sweep has passed,
  // which hold kept entries only. So one pass erases exactly the set.
  auto& cells = ledger.cells_;
  for (std::size_t i = 0; i < cells.size(); ++i)
    while (cells[i].round != MonoLedger::kEmpty && goes(cells[i]))
      ledger.erase_at(i);
}

void RequestEngine::finish(std::uint32_t slot, RequestStatus status) {
  const std::uint64_t id = slots_.uid[slot];
  const auto kind = static_cast<RequestKind>(slots_.kind[slot]);
  const RingPos key = slots_.key[slot];
  const std::uint64_t rif = round_ - slots_.issue_round[slot];
  const std::uint32_t pay = slots_.payload[slot];
  std::string kv_key, kv_value;
  if (pay != kNoPayload) {
    kv_key = std::move(payloads_[pay].key);
    kv_value = std::move(payloads_[pay].value);
  }
  std::uint32_t result = kNoOwner;
  bool found = false;
  if (status == RequestStatus::kResolved) {
    result = slots_.custody[slot];
    if (kind == RequestKind::kKvPut) {
      if (kv_) {
        kv_->put_at(result, kv_key, std::move(kv_value));
        ++totals_.puts_stored;
      }
    } else if (kind == RequestKind::kKvGet) {
      found = kv_ && kv_->get_at(result, kv_key) != nullptr;
      if (found) {
        ++totals_.gets_found;
      } else if (kv_ && kv_->any_live_copy(kv_key, engine_.network())) {
        ++totals_.gets_stale_miss;
      } else {
        ++totals_.gets_lost_miss;
      }
    }
    // Searchability ledger: lookups and found gets are successful searches;
    // a get that reached the responsible owner but missed is unresolved.
    if (kind == RequestKind::kLookup ||
        (kind == RequestKind::kKvGet && found))
      mono_resolved(key, result);
    else if (kind == RequestKind::kKvGet)
      mono_unresolved(key, slots_.origin[slot]);
    ++totals_.resolved;
    totals_.hops_sum += slots_.hops[slot];
  } else {
    if (kind != RequestKind::kKvPut) mono_unresolved(key, slots_.origin[slot]);
    if (status == RequestStatus::kFailedStaleRouting)
      ++totals_.failed_stale;
    else if (status == RequestStatus::kFailedPartitionLost)
      ++totals_.failed_partition;
    else
      ++totals_.failed_timeout;
  }
  totals_.rounds_sum += rif;
  totals_.retries_sum += slots_.retries[slot];
  totals_.max_rounds_in_flight = std::max(totals_.max_rounds_in_flight, rif);
  // Order-sensitive fold; completions happen in a deterministic order
  // (shard-major, then per-shard emission order, per round).
  std::uint64_t d = util::mix64(id * 0x9E3779B97F4A7C15ULL + rif);
  d ^= util::mix64((static_cast<std::uint64_t>(status) << 40) ^
                   (static_cast<std::uint64_t>(slots_.hops[slot]) << 20) ^
                   slots_.retries[slot]);
  d ^= util::mix64((static_cast<std::uint64_t>(result) << 32) |
                   (found ? 1u : 0u));
  totals_.fingerprint = util::mix64(totals_.fingerprint ^ d);
  if (tracing_)
    util::Tracer::instance().note({round_, id,
                                   static_cast<std::uint64_t>(status), result,
                                   slots_.hops[slot], rif,
                                   util::TraceKind::kReqComplete});
  completions_.push_back({id, kind, status, slots_.issue_round[slot], round_,
                          slots_.origin[slot], result, slots_.hops[slot],
                          slots_.retries[slot], found, std::move(kv_key)});
  if (opt_.completion_cap != 0 &&
      completions_.size() > opt_.completion_cap) {
    completions_.pop_front();
    ++completions_dropped_;
  }
  free_slot(slot);
}

}  // namespace rechord::net
