#pragma once
// A distributed key-value store on top of the stabilized Re-Chord overlay --
// the application the paper's Fact 2.1 promises ("the final state of
// Re-Chord contains Chord as a subgraph, so it can faithfully emulate any
// applications on top of Chord"). Keys are consistently hashed onto the
// identifier ring; a key lives on the peer whose identifier is the closest
// clockwise successor of its hash (plus optional successor replicas). The
// store holds the data only: puts and gets are routed hop by hop through
// the live overlay by net::RequestEngine, which stores and fetches at the
// owner it reached (put_at / get_at).
//
// Membership changes follow Chord's data-plane conventions:
//   * join        -> rebalance() migrates the arc the newcomer now owns,
//   * graceful leave -> handoff() moves the leaver's records to successors,
//   * crash       -> drop() loses the replica; rebalance() re-replicates
//                    surviving copies back up to the replication factor.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/network.hpp"

namespace rechord::dht {

/// A placement snapshot of the live overlay -- which owner is responsible
/// for a key and which hold its replicas (recompute after churn/healing).
/// The live owners in ring order: a key's successor list is the run that
/// starts at the first position >= its hash and wraps past the top.
struct RoutingView {
  /// Positions of the live owners, ascending (live ids are distinct).
  std::vector<core::RingPos> pos;
  /// owners[i] is the live owner at pos[i].
  std::vector<std::uint32_t> owners;

  [[nodiscard]] static RoutingView snapshot(const core::Network& net);

  /// The owner responsible for hash h: successor(h) on the ring.
  [[nodiscard]] std::uint32_t responsible(core::RingPos h) const;
  /// The first `replicas` distinct owners clockwise from h (successor list).
  [[nodiscard]] std::vector<std::uint32_t> replica_set(core::RingPos h,
                                                       unsigned replicas) const;
};

struct StoreOptions {
  /// Total copies per key (primary + replicas-1 successor copies).
  unsigned replicas = 1;
};

class KvStore {
 public:
  explicit KvStore(StoreOptions opt = {}) : opt_(opt) {}

  /// Re-assigns every record to the current replica set (Chord's key
  /// migration after churn). Returns the number of records moved or copied.
  std::size_t rebalance(const RoutingView& view);

  /// Graceful leave, data plane: the leaver pushes each of its records to
  /// the next responsible peers (excluding itself). Call BEFORE removing the
  /// peer from the network. Returns records transferred.
  std::size_t handoff(const RoutingView& view, std::uint32_t leaving_owner);

  /// Crash, data plane: the peer's replica is lost.
  void drop(std::uint32_t crashed_owner);

  // -- hop-by-hop data plane (net/request_engine.hpp) -----------------------
  //
  // The request engine routes over the live overlay round by round and
  // supplies the owner it actually reached; these primitives store/fetch
  // directly at that owner, without a routing snapshot.

  /// Stores (key, value) at `owner` (a single copy; replication happens via
  /// later rebalance, or naturally when a successor already holds a copy).
  void put_at(std::uint32_t owner, std::string_view key, std::string value);
  /// The value stored at `owner` under `key`, or nullptr.
  [[nodiscard]] const std::string* get_at(std::uint32_t owner,
                                          std::string_view key) const;
  /// True when any owner alive in `net` holds a copy of `key` -- the
  /// stale-miss vs lost-record classifier for hop-by-hop gets.
  [[nodiscard]] bool any_live_copy(std::string_view key,
                                   const core::Network& net) const;

  // -- introspection -------------------------------------------------------

  /// Number of (key, replica) records currently stored.
  [[nodiscard]] std::size_t total_records() const;
  /// Records held by one peer.
  [[nodiscard]] std::size_t records_on(std::uint32_t owner) const;

  [[nodiscard]] const StoreOptions& options() const noexcept { return opt_; }

 private:
  struct Record {
    std::string key;
    std::string value;
    std::uint64_t version = 0;
  };

  StoreOptions opt_;
  /// storage_[owner]: hash -> record. Grows with the owner id space.
  std::vector<std::map<core::RingPos, Record>> storage_;
  std::uint64_t version_clock_ = 0;

  void ensure_owner(std::uint32_t owner);
  void store_copy(std::uint32_t owner, core::RingPos h, Record rec);
};

}  // namespace rechord::dht
