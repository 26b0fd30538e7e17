#pragma once
// The ORIGINAL Chord maintenance protocol (stabilize / notify / fix_fingers,
// Stoica et al.) as a round-based baseline. This is the comparator that
// motivates the paper: it keeps a correct ring correct and absorbs joins,
// but it is NOT self-stabilizing -- from an arbitrary weakly connected
// pointer state (e.g. several disjoint successor loops) it can never merge
// the components, because successor pointers only ever tighten within a loop.
// The §1 row of bench/claims measures exactly this failure mode against
// Re-Chord.

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "graph/digraph.hpp"

namespace rechord::chord {

using core::RingPos;

inline constexpr std::uint32_t kNone = UINT32_MAX;

class ChordStabilizer {
 public:
  /// Peers with the given positions; initial successor = closest clockwise
  /// out-neighbor in `initial` (kNone if the peer has no out-edge),
  /// predecessor unknown, fingers unset.
  ChordStabilizer(std::vector<RingPos> pos, const graph::Digraph& initial);

  /// One synchronous round: stabilize (adopt successor's predecessor when it
  /// lies in between), notify (successor learns a closer predecessor), and
  /// fix one finger per node via greedy lookup over the current pointers.
  void step();

  /// True when every node's successor pointer matches the ideal ring.
  [[nodiscard]] bool ring_correct() const;

  /// True when ring_correct() and every finger equals the ideal Chord finger.
  [[nodiscard]] bool fully_correct() const;

  /// Runs until ring_correct() or `max_rounds`; returns rounds used, or
  /// max_rounds when the ring never became correct.
  std::uint64_t run(std::uint64_t max_rounds);

  [[nodiscard]] std::uint32_t successor(std::uint32_t v) const {
    return succ_[v];
  }
  [[nodiscard]] std::uint32_t predecessor(std::uint32_t v) const {
    return pred_[v];
  }

 private:
  std::vector<RingPos> pos_;
  std::vector<std::uint32_t> succ_, pred_;
  // Next-round staging, reused across rounds so step() allocates nothing.
  std::vector<std::uint32_t> succ_next_, pred_next_;
  std::vector<std::vector<std::uint32_t>> fingers_;  // by exponent i-1
  std::vector<std::uint32_t> ideal_succ_;
  std::vector<int> ideal_m_;
  int finger_cursor_ = 0;

  [[nodiscard]] std::uint32_t lookup_via_pointers(std::uint32_t from,
                                                  RingPos key) const;
};

}  // namespace rechord::chord
