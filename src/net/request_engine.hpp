#pragma once
// In-network asynchronous request engine (DESIGN.md §9-§10): application
// requests -- Lookup, KV Put, KV Get -- that live INSIDE the round pipeline
// instead of routing over an instantaneous snapshot. Each outstanding
// request resides at a current owner (its custody) and advances at most one
// hop per engine round by greedy Chord progress over that owner's CURRENT
// published edges, re-read fresh every hop -- so stabilization helps or
// hurts live traffic, exactly the regime in which monotonic-searchability
// questions exist (Scheideler/Setzer/Strothmann, PAPERS.md).
//
// PRODUCTION-TRAFFIC LAYOUT (DESIGN.md §10). The engine is built for
// open-loop load at millions of outstanding requests:
//
//   * Custody state is SHARDED: a fixed number (kShards = 16) of logical
//     shards partition the owner space; each shard holds the requests
//     parked at its owners plus its own due-round bucket queue of in-flight
//     hops targeting them. A round advances every shard independently -- on
//     the engine's persistent worker pool when the engine is multi-threaded
//     -- followed by one serial, shard-major merge that applies completions
//     (KV effects, the monotonic-searchability ledger, totals, the
//     completion fingerprint) and moves launched hops / bounced requests
//     into their target shards. Outcomes are bit-identical across
//     {active-set, full-scan} x any thread count, because shard assignment
//     keys on the custody owner, every per-shard order evolves
//     deterministically, and the merge walks shards in index order
//     (tests/test_request.cpp asserts 1-, 3- and 8-thread runs produce
//     identical completion SEQUENCES, not just equal fingerprints).
//
//   * Advancement is BATCHED per custody owner: a shard stably groups its
//     parked requests by owner and fetches that owner's routing row ONCE per
//     round, amortized over every request parked there. Rows are cached per
//     shard, one per owner, and validated against
//     Network::topology_version(), so at steady state an owner's edge scan
//     happens once EVER. The routing rule itself is one pure function,
//     next_hop(), of the row, the custody position, the key, the phase and
//     the bounced next-hop; tests/test_request.cpp checks it decision by
//     decision against a naive edge-scanning reference router.
//
//   * Request records are STRUCT-OF-ARRAYS: the per-request hot fields live
//     in parallel vectors indexed by a recycled slot id, and the KV payloads
//     (two std::strings nobody touches while a request routes) live
//     out-of-line in a pooled side table -- a routing step touches ~40
//     contiguous bytes per request instead of a 100+-byte record with
//     embedded strings, which is what stops 10M+ outstanding requests from
//     cache-missing. Slots are recycled through a free list, so sustained
//     open-loop runs hold memory proportional to PEAK outstanding requests,
//     not total issued; the public request id (returned by submit_*, stored
//     in completion records, and keying every stateless coin) stays a
//     monotone uid. No uid -> slot index is kept: a freed slot's uid column
//     holds a sentinel, and the test-only custody_of() scans that column.
//
//   * The monotonic-searchability ledger every completing search updates is
//     a flat 16-byte-cell hash table (MonoLedger), so the serial merge pays
//     O(1) per completion instead of a tree walk over up to 2^20 keys.
//
// Hops are messages: each one pays the per-(source-dc, target-dc) delivery
// delay class of the engine's latency model through its target shard's
// due-round bucket queue, and at DELIVERY time flips the engine's
// message-loss coin, respects the active partition cut, and detects a
// next-hop owner that died mid-flight. A failed hop bounces back to the
// sender (avoiding the failed next-hop on the re-route, which happens at
// the next round's advancement); a request whose custody owner crashed
// fails over to its origin. Requests that exhaust their TTL/hop budget fail
// with a classification: stale-routing (stuck with no usable next hop),
// partition-lost (last obstruction was the cut), or timeout (everything
// else, including origin death).
//
// Determinism contract: every coin (per-hop delay jitter, loss) is a
// stateless hash of (seed, request id, attempt) and every routing decision
// is a pure function of the network's committed end-of-round state -- which
// is itself bit-identical across {active-set, full-scan} x thread counts --
// so request outcomes, and the request fingerprint folded over them, are
// bit-identical across all scheduler modes (tests/test_request.cpp).
//
// Routing (next_hop(), per parked request, per round; neighbors = the live
// owners reachable over the custody owner's unmarked/ring edges to real
// slots, the per-owner row of the paper's §2.2 real projection):
//   * forward phase: hop to the neighbor making the most clockwise progress
//     toward the key without passing it (the §1.1 binary-search strategy);
//     when no neighbor precedes the key, hop to the one closest AT/after it
//     and enter the settle phase;
//   * settle phase: hop to the neighbor that is a strictly closer clockwise
//     successor of the key, else complete -- monotone in both phases, so
//     the walk cannot cycle; on the stabilized overlay it provably lands on
//     the globally responsible owner (asserted against the snapshot
//     projection in tests/test_request.cpp).
// There is deliberately NO local "key in (pred, self]" ownership shortcut: a
// Re-Chord peer has no reliable leftward pointer (even at the fixpoint a
// real slot's published rl can be invalid, and the projection need not
// contain a predecessor edge), so requests always complete from the
// predecessor side, like Chord without predecessor pointers.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "util/trace.hpp"

namespace rechord::dht {
class KvStore;
}

namespace rechord::net {

using core::RingPos;

enum class RequestKind : std::uint8_t { kLookup = 0, kKvPut = 1, kKvGet = 2 };

enum class RequestStatus : std::uint8_t {
  kInFlight = 0,
  /// Reached the owner locally responsible for the key. For kKvGet the
  /// record may still be absent there (see RequestRecord::found).
  kResolved,
  /// Budget exhausted while stuck with no usable next hop -- the routing
  /// state under the request was stale (healing had not caught up).
  kFailedStaleRouting,
  /// Budget exhausted with the last obstruction a partition-cut drop.
  kFailedPartitionLost,
  /// Budget exhausted in flight (loss storms, dead hops, origin death).
  kFailedTimeout,
};

[[nodiscard]] const char* request_status_name(RequestStatus s);
[[nodiscard]] const char* request_kind_name(RequestKind k);

/// Per-engine knobs. The shard count is not an option: it is a fixed
/// constant of the engine (DESIGN.md §10.1).
struct RequestOptions {
  /// Seeds the stateless per-(request, attempt) hop coins.
  std::uint64_t seed = 0x5EEDC0FFEEULL;
  /// A request that has taken this many hops fails at its next routing step.
  std::uint32_t hop_cap = 96;
  /// A request older than this many rounds fails at its next routing step.
  std::uint32_t ttl_rounds = 128;
  /// Ring-buffer cap on RETAINED completion records (0 = keep every record,
  /// the PR 5 behavior). With a cap, completions() holds the most recent
  /// `completion_cap` records, completions_dropped() counts the evicted
  /// prefix, and every aggregate in totals() stays exact -- the opt-in that
  /// keeps sustained open-loop runs at bounded memory.
  std::size_t completion_cap = 0;
  /// Cap on the monotonic-searchability ledger (0 = unbounded). When the
  /// ledger exceeds the cap, the entries with the OLDEST resolution rounds
  /// are pruned (deterministically: by (round, key) order) down to 3/4 of
  /// the cap. Pruned keys can no longer witness a violation -- the
  /// documented trade for bounded memory under open-loop load; totals stay
  /// exact for everything else.
  std::size_t mono_ledger_cap = 0;
};

/// A key's last resolution round and the owner it resolved at.
struct MonoEntry {
  std::uint64_t round = 0;
  std::uint32_t owner = 0;
};

/// Monotonic-searchability ledger: key -> MonoEntry, as a flat open-
/// addressing table with linear probing (DESIGN.md §10.2). A cell is 16
/// bytes -- the key, the round in 32 bits and the owner -- and the table
/// doubles before a put that could pass 3/4 load, starting at 64 cells; it
/// never shrinks, so a 2^20-capped ledger settles at 2^21 cells (32 MiB).
/// Lookups and updates are O(1) expected; iteration order is the cell
/// order, which no caller may let into an outcome.
class MonoLedger {
 public:
  /// Largest storable round. put() throws std::overflow_error past it
  /// rather than truncate (UINT32_MAX itself marks an empty cell).
  static constexpr std::uint64_t kMaxRound = UINT32_MAX - 1;
  static constexpr std::size_t kCellBytes = 16;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Allocated cells (0 or a power of two >= 64).
  [[nodiscard]] std::size_t cells() const noexcept { return cells_.size(); }
  [[nodiscard]] std::optional<MonoEntry> find(RingPos key) const noexcept;
  /// Inserts `key` or overwrites its entry.
  void put(RingPos key, std::uint64_t round, std::uint32_t owner);
  /// Empties every cell; the allocation stays.
  void clear() noexcept;
  /// Calls f(key, MonoEntry) for every entry, in cell order.
  template <class F>
  void for_each(F&& f) const {
    for (const Cell& c : cells_)
      if (c.round != kEmpty) f(c.key, MonoEntry{c.round, c.owner});
  }

 private:
  friend void prune_oldest(MonoLedger& ledger, std::size_t drop);
  struct Cell {
    RingPos key;
    std::uint32_t round;
    std::uint32_t owner;
  };
  static_assert(sizeof(Cell) == kCellBytes, "MonoLedger cells are 16 bytes");
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  [[nodiscard]] std::size_t home(RingPos key) const noexcept {
    // Fibonacci hashing: the top log2(cells) bits of key * 2^64/phi.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void grow();
  /// Empties cell i and back-shifts the rest of its probe run, so every
  /// remaining entry stays reachable from its home without tombstones.
  void erase_at(std::size_t i) noexcept;

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(cells)
};

/// Erases the first `drop` entries of `ledger` in (round, key) order -- the
/// RequestOptions::mono_ledger_cap eviction -- without materializing that
/// order: a radix select over the resolution rounds (16 bits per pass, one
/// pass while the rounds span fewer than 2^16) finds the cut round, an
/// nth_element over the cut round's keys finds the last key to go, and one
/// pass over the cells erases everything older plus the cut round's keys up
/// to it. Scratch is one 256 KiB histogram plus the cut round's keys.
void prune_oldest(MonoLedger& ledger, std::size_t drop);

/// Completion record of one request (success or failure).
struct RequestRecord {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kLookup;
  RequestStatus status = RequestStatus::kInFlight;
  std::uint64_t issue_round = 0;
  std::uint64_t completion_round = 0;
  std::uint32_t origin = 0;
  /// Owner the request completed at; UINT32_MAX for failures.
  std::uint32_t result_owner = 0;
  std::uint32_t hops = 0;
  std::uint32_t retries = 0;
  /// kKvGet only: the reached owner held the record.
  bool found = false;
  /// KV key of kKvPut/kKvGet requests (empty for lookups) -- lets callers
  /// act on completions, e.g. the scenario runner registers a put's key as
  /// gettable only once the put actually resolved.
  std::string key;

  [[nodiscard]] std::uint64_t rounds_in_flight() const noexcept {
    return completion_round - issue_round;
  }
};

/// Aggregates over every completed request (cumulative; always exact,
/// independent of the completion-record ring cap).
struct RequestTotals {
  std::uint64_t issued = 0;
  std::uint64_t resolved = 0;
  std::uint64_t failed_stale = 0;
  std::uint64_t failed_partition = 0;
  std::uint64_t failed_timeout = 0;
  // KV data plane (kKvGet / kKvPut completions).
  std::uint64_t puts_stored = 0;
  std::uint64_t gets_found = 0;
  /// Get misses with a live copy elsewhere: routing reached an owner the
  /// record had not (re-)reached yet.
  std::uint64_t gets_stale_miss = 0;
  /// Get misses with no surviving copy anywhere.
  std::uint64_t gets_lost_miss = 0;
  // Path statistics over completed requests.
  std::uint64_t hops_sum = 0;
  std::uint64_t rounds_sum = 0;  // sum of rounds-in-flight
  std::uint64_t retries_sum = 0;
  std::uint64_t max_rounds_in_flight = 0;
  // Delivery-time obstructions (each bounces the hop back to its sender).
  std::uint64_t loss_bounces = 0;
  std::uint64_t partition_bounces = 0;
  std::uint64_t dead_hop_bounces = 0;
  /// Requests whose custody owner died while holding them (failed over to
  /// the origin rather than hanging).
  std::uint64_t custody_failovers = 0;
  /// Monotonic-searchability violations: a key that resolved at round r and
  /// failed to resolve at a later round with BOTH the earlier result owner
  /// and the failing request's origin still alive.
  std::uint64_t mono_violations = 0;
  /// Keys the RequestOptions::mono_ledger_cap prune dropped from the ledger.
  /// Each could have witnessed a later violation, so mono_violations is a
  /// lower bound whenever this is nonzero (published as
  /// `cap.mono_ledger.hits`).
  std::uint64_t mono_ledger_pruned = 0;
  /// Order-sensitive fold over every completion (id, rounds, hops, retries,
  /// status, result, found) -- the determinism-contract fingerprint.
  std::uint64_t fingerprint = 0;

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failed_stale + failed_partition + failed_timeout;
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return resolved + failed();
  }
  [[nodiscard]] double mean_hops() const noexcept {
    return resolved ? static_cast<double>(hops_sum) /
                          static_cast<double>(resolved)
                    : 0.0;
  }
  [[nodiscard]] double mean_rounds_in_flight() const noexcept {
    return completed() ? static_cast<double>(rounds_sum) /
                             static_cast<double>(completed())
                       : 0.0;
  }
};

/// "No owner": the avoid value of a request whose last hop did not bounce,
/// and the `to` of a NextHop that launches nothing.
inline constexpr std::uint32_t kNoOwner = UINT32_MAX;

/// Per-owner routing row: the live owners reachable over the owner's
/// unmarked/ring edges as (ring position, owner id), sorted by position.
/// The position order turns next-hop selection into binary searches around
/// the key -- the clockwise argmax/argmin the routing rules ask for are the
/// key's circular neighbors in this array.
using NbrRow = std::vector<std::pair<RingPos, std::uint32_t>>;

/// Scans `owner`'s live slots' unmarked/ring edges to live real slots into
/// `out`, position-sorted and free of duplicates and of `owner` itself.
void build_row(const core::Network& net, std::uint32_t owner, NbrRow& out);

/// One routing decision at a custody owner.
struct NextHop {
  enum Kind : std::uint8_t {
    kStuck,      // no usable next hop: wait parked, retry next round
    kHop,        // launch a hop to `to`, phase unchanged
    kSettleHop,  // launch a hop to `to` and enter the settle phase
    kResolved,   // the custody owner is the key's closest known successor
  };
  Kind kind = kStuck;
  std::uint32_t to = kNoOwner;
};

/// The routing rule (see the header comment): the next hop from the custody
/// owner at `cur` toward `key`, over that owner's `row`. `avoid` is the
/// owner the last hop bounced off (kNoOwner if none): a first pass excludes
/// it, and a second pass re-admits it when the exclusion leaves nothing
/// usable. Pure: the same inputs always select the same hop.
[[nodiscard]] NextHop next_hop(const NbrRow& row, RingPos cur, RingPos key,
                               bool settle, std::uint32_t avoid);

class RequestEngine {
 public:
  /// Binds to `engine` for the lifetime of the request engine. The caller
  /// drives the lockstep: call on_round() exactly once after every
  /// engine.step() (the scenario runner does it from the round observer).
  explicit RequestEngine(core::Engine& engine, RequestOptions opt = {});

  /// Attaches the KV data plane used by kKvPut/kKvGet completions; without
  /// a store, puts store nothing and gets always miss. The caller keeps
  /// the store's replication and churn handoff (KvStore::rebalance,
  /// handoff, drop) in step with membership.
  void bind_store(dht::KvStore* kv) noexcept { kv_ = kv; }

  // -- submission (between rounds; the request parks at its origin and takes
  // its first hop at the next on_round) ------------------------------------
  std::uint64_t submit_lookup(RingPos key, std::uint32_t origin);
  std::uint64_t submit_put(std::string key, std::string value,
                           std::uint32_t origin);
  std::uint64_t submit_get(std::string key, std::uint32_t origin);

  /// Advances every outstanding request by (at most) one hop against the
  /// committed state of the round that just ran: per shard, due hop
  /// deliveries first (loss/partition/dead-hop checks), then one batched
  /// routing step per custody owner over its parked requests -- sharded over
  /// the engine's worker pool when the engine is multi-threaded -- followed
  /// by the serial shard-major merge that applies completions and hop
  /// handoffs in a deterministic order.
  void on_round();

  // -- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t inflight() const noexcept { return outstanding_; }
  [[nodiscard]] const RequestTotals& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return totals_.fingerprint;
  }
  /// Retained completion records in completion order. Without a
  /// completion_cap this is every record since the last clear_completions();
  /// with one, the most recent completion_cap records (the evicted prefix is
  /// counted by completions_dropped()).
  [[nodiscard]] const std::deque<RequestRecord>& completions() const noexcept {
    return completions_;
  }
  /// Records evicted from the front of the completion ring so far (0 without
  /// a cap). completions_dropped() + completions().size() counts every
  /// completion since the last clear_completions().
  [[nodiscard]] std::uint64_t completions_dropped() const noexcept {
    return completions_dropped_;
  }
  void clear_completions() {
    completions_.clear();
    completions_dropped_ = 0;
  }
  /// Current size of the monotonic-searchability ledger -- the bounded-
  /// memory metric the sustained-throughput bench and scenario runs watch.
  [[nodiscard]] std::size_t mono_ledger_size() const noexcept {
    return mono_.size();
  }
  /// Bytes of the ledger's table: its cells x 16 (it never shrinks, so a
  /// 2^20-capped ledger settles at 32 MiB).
  [[nodiscard]] std::size_t mono_ledger_bytes() const noexcept {
    return mono_.cells() * MonoLedger::kCellBytes;
  }
  /// Current custody owner of an outstanding request; nullopt once it
  /// completed. Test instrumentation: a scan over the slot column, O(slots).
  [[nodiscard]] std::optional<std::uint32_t> custody_of(
      std::uint64_t id) const;

  [[nodiscard]] const RequestOptions& options() const noexcept { return opt_; }

 private:
  enum Phase : std::uint8_t { kForward = 0, kSettle = 1 };
  enum Obstruction : std::uint8_t {
    kObsNone = 0,
    kObsStale,      // no usable next hop at the custody owner
    kObsLoss,       // hop dropped by the message-loss coin
    kObsPartition,  // hop dropped at the partition cut
    kObsDead,       // next-hop owner died mid-flight
  };

  /// A hop launched this round, recorded in emission order; the merge hands
  /// it to shard_of(to)'s due bucket `delay` rounds out.
  struct Launch {
    std::uint32_t slot;
    std::uint32_t to;
    std::uint32_t delay;
  };
  /// A request re-entering the parked state at a (possibly remote) owner:
  /// delivery bounces and custody failovers. Routed at the NEXT round's
  /// advancement.
  struct Repark {
    std::uint32_t slot;
    std::uint32_t owner;
  };
  /// A request that finished this round; all side effects (KV, mono ledger,
  /// totals, fingerprint, record) are applied at the serial merge.
  struct Completion {
    std::uint32_t slot;
    RequestStatus status;
  };
  /// Additive per-shard counters folded into totals_ at the merge.
  struct ShardTally {
    std::uint64_t loss_bounces = 0;
    std::uint64_t partition_bounces = 0;
    std::uint64_t dead_hop_bounces = 0;
    std::uint64_t custody_failovers = 0;
  };

  /// A cached NbrRow, valid while the network's topology_version() still
  /// equals `stamp` (0 = never computed; the version counter starts at 1).
  struct OwnerRow {
    std::uint64_t stamp = 0;
    NbrRow nbrs;
  };

  struct Shard {
    /// Requests parked at this shard's owners: (custody owner, slot) in
    /// deterministic insertion order -- submissions, then merge handoffs in
    /// shard-major order, then this shard's own deliveries.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> parked;
    /// Routing rows of this shard's owners, indexed by custody owner /
    /// kShards and grown on demand -- written only by this shard's worker
    /// (an owner maps to exactly one shard), so the cache is race-free under
    /// the parallel phase. A row mirrors one owner's slots in the Network,
    /// so the cache never outgrows the network it reads.
    std::vector<OwnerRow> rows;
    /// due[k]: slots whose in-flight hop delivers HERE at the k-th next
    /// on_round (the front bucket is this round's deliveries); emission
    /// order within a bucket is preserved, like the engine's in-flight
    /// queue.
    std::deque<std::vector<std::uint32_t>> due;
    // Per-round outputs, written only by this shard's worker, consumed by
    // the serial merge.
    std::vector<Launch> launches;
    std::vector<Repark> reparks;
    std::vector<Completion> completions;
    ShardTally tally;
    /// Hop-level trace events recorded during the parallel phase; the
    /// serial merge drains them into the global Tracer in shard-major
    /// order, so the trace stream is thread-count invariant (DESIGN.md
    /// §11). Empty (and untouched) while tracing is disabled.
    std::vector<util::TraceEvent> trace;
    // Scratch reused across rounds.
    std::vector<std::uint64_t> group_keys;  // (owner << 32 | parked index)
    std::vector<std::pair<std::uint32_t, std::uint32_t>> next_parked;
    std::vector<std::uint32_t> deliver_buf;
  };

  /// SoA request state, indexed by a recycled slot id. A slot is referenced
  /// by exactly one container at any time -- one shard's parked list or one
  /// shard's due queue -- so the parallel phase writes disjoint indices.
  /// The vectors are only resized at submit time (serial, between rounds).
  struct SlotArrays {
    /// Public request id (coin key); kNoUid while the slot is free.
    std::vector<std::uint64_t> uid;
    std::vector<RingPos> key;                // target ring position
    std::vector<std::uint64_t> issue_round;
    std::vector<std::uint32_t> origin;
    std::vector<std::uint32_t> custody;
    std::vector<std::uint32_t> hop_to;  // valid while the hop is in flight
    std::vector<std::uint32_t> avoid;   // last bounced next-hop
    std::vector<std::uint32_t> hops;
    std::vector<std::uint32_t> retries;
    std::vector<std::uint32_t> attempt;  // hop launches (keys the coins)
    std::vector<std::uint8_t> kind;         // RequestKind
    std::vector<std::uint8_t> phase;        // Phase
    std::vector<std::uint8_t> obstruction;  // Obstruction
    /// Index into the out-of-line payload pool; kNoPayload for lookups.
    std::vector<std::uint32_t> payload;

    [[nodiscard]] std::size_t size() const noexcept { return uid.size(); }
    void grow_one();
  };
  /// Out-of-line KV payloads (kKvPut / kKvGet); pooled and recycled like
  /// slots so routing never walks over string storage.
  struct KvPayload {
    std::string key, value;
  };

  std::uint64_t submit(RequestKind kind, RingPos key, std::uint32_t origin,
                       std::string kv_key, std::string kv_value);
  [[nodiscard]] std::uint32_t alloc_slot();
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t owner) const noexcept {
    return owner % static_cast<std::uint32_t>(shards_.size());
  }
  void park(std::uint32_t owner, std::uint32_t slot) {
    shards_[shard_of(owner)].parked.emplace_back(owner, slot);
  }

  // -- parallel phase (per shard; reads engine state, writes only this
  // shard's slots and outputs) ----------------------------------------------
  void process_shard(Shard& sh);
  void deliver(Shard& sh, std::uint32_t slot);
  void bounce(Shard& sh, std::uint32_t slot, Obstruction obs);
  /// Custody owner died holding the request: fail over to the origin (or
  /// fail the request when the origin is gone too).
  void custody_failover(Shard& sh, std::uint32_t slot);
  void advance_parked(Shard& sh);
  /// Routes one parked request: applies next_hop() over the cached row of
  /// its custody owner at position `cur`.
  void route_at_owner(Shard& sh, const NbrRow& row, std::uint32_t slot,
                      RingPos cur);
  void launch_hop(Shard& sh, std::uint32_t slot, std::uint32_t next);
  /// The owner's routing row through the shard's version-stamped cache.
  const NbrRow& owner_row(Shard& sh, std::uint32_t owner);

  // -- serial merge ---------------------------------------------------------
  void merge_round();
  void finish(std::uint32_t slot, RequestStatus status);
  /// Records / checks the monotonic-searchability ledger for a completing
  /// search (kLookup, kKvGet).
  void mono_resolved(RingPos key, std::uint32_t result);
  void mono_unresolved(RingPos key, std::uint32_t origin);
  void prune_mono_ledger();
  void free_slot(std::uint32_t slot);
  [[nodiscard]] std::uint64_t hop_hash(std::uint64_t id, std::uint32_t attempt,
                                       std::uint64_t salt) const noexcept;

  core::Engine& engine_;
  RequestOptions opt_;
  dht::KvStore* kv_ = nullptr;
  std::uint64_t round_ = 0;  // engine round the current on_round reacts to
  /// Tracer enablement, latched once per round before the parallel phase
  /// (workers read it concurrently; written only from serial code).
  bool tracing_ = false;

  SlotArrays slots_;
  std::vector<KvPayload> payloads_;
  std::vector<std::uint32_t> payload_free_;
  std::vector<std::uint32_t> slot_free_;
  std::uint64_t next_uid_ = 0;
  std::size_t outstanding_ = 0;
  std::vector<Shard> shards_;

  MonoLedger mono_;
  std::deque<RequestRecord> completions_;
  std::uint64_t completions_dropped_ = 0;
  RequestTotals totals_;
};

}  // namespace rechord::net
