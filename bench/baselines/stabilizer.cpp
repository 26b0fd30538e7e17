#include "baselines/stabilizer.hpp"

#include <algorithm>

#include "baselines/ideal_chord.hpp"
#include "ident/ring_pos.hpp"

namespace rechord::chord {

ChordStabilizer::ChordStabilizer(std::vector<RingPos> pos,
                                 const graph::Digraph& initial)
    : pos_(std::move(pos)) {
  const std::size_t n = pos_.size();
  succ_.assign(n, kNone);
  pred_.assign(n, kNone);
  fingers_.assign(n, std::vector<std::uint32_t>(ident::kMaxExponent, kNone));
  for (std::uint32_t v = 0; v < n; ++v) {
    RingPos best_d = 0;
    for (auto w : initial.out(v)) {
      if (w == v) continue;
      const RingPos d = ident::cw_dist(pos_[v], pos_[w]);
      if (succ_[v] == kNone || d < best_d) {
        succ_[v] = w;
        best_d = d;
      }
    }
  }
  const ChordGraph ideal = ChordGraph::compute(pos_);
  ideal_succ_ = ideal.succ;
  ideal_m_ = ideal.m;
}

std::uint32_t ChordStabilizer::lookup_via_pointers(std::uint32_t from,
                                                   RingPos key) const {
  // Greedy descent over succ + fingers; bounded walk, may fail (kNone).
  std::uint32_t cur = from;
  const std::uint32_t target_guard =
      static_cast<std::uint32_t>(2 * pos_.size() + 16);
  for (std::uint32_t hops = 0; hops < target_guard; ++hops) {
    const std::uint32_t s = succ_[cur];
    if (s == kNone) return kNone;
    // Done when key lies in (cur, succ(cur)].
    if (ident::cw_dist(pos_[cur], key) <=
            ident::cw_dist(pos_[cur], pos_[s]) &&
        ident::cw_dist(pos_[cur], key) != 0)
      return s;
    // Farthest pointer that does not overshoot key.
    std::uint32_t best = s;
    RingPos best_d = ident::cw_dist(pos_[cur], pos_[s]);
    const RingPos limit = ident::cw_dist(pos_[cur], key);
    for (auto f : fingers_[cur]) {
      if (f == kNone || f == cur) continue;
      const RingPos d = ident::cw_dist(pos_[cur], pos_[f]);
      if (d <= limit && d > best_d) {
        best = f;
        best_d = d;
      }
    }
    if (best == cur) return kNone;
    cur = best;
  }
  return kNone;
}

void ChordStabilizer::step() {
  const std::size_t n = pos_.size();
  std::vector<std::uint32_t>& succ_next = succ_next_;
  std::vector<std::uint32_t>& pred_next = pred_next_;
  succ_next = succ_;
  pred_next = pred_;
  // stabilize: x asks succ(x) for its predecessor; adopts it when in between.
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t s = succ_[v];
    if (s == kNone) continue;
    const std::uint32_t p = pred_[s];
    if (p == kNone || p == v || p == s) continue;
    if (ident::cw_dist(pos_[v], pos_[p]) < ident::cw_dist(pos_[v], pos_[s]))
      succ_next[v] = p;
  }
  // notify: v tells its (new) successor about itself; the successor keeps
  // the closest counterclockwise notifier.
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t s = succ_next[v];
    if (s == kNone || s == v) continue;
    const std::uint32_t cur = pred_next[s];
    if (cur == kNone ||
        ident::cw_dist(pos_[v], pos_[s]) < ident::cw_dist(pos_[cur], pos_[s]))
      pred_next[s] = v;
  }
  succ_.swap(succ_next_);
  pred_.swap(pred_next_);
  // fix_fingers: one exponent per round, round-robin, via lookup over the
  // freshly updated pointers.
  const int i = finger_cursor_ + 1;
  finger_cursor_ = (finger_cursor_ + 1) % ident::kMaxExponent;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (i > ideal_m_[v]) continue;
    const RingPos key = ident::virtual_pos(pos_[v], i);
    const std::uint32_t t = lookup_via_pointers(v, key);
    fingers_[v][static_cast<std::size_t>(i - 1)] = t;
  }
}

bool ChordStabilizer::ring_correct() const {
  if (pos_.size() <= 1) return true;
  for (std::uint32_t v = 0; v < pos_.size(); ++v)
    if (succ_[v] != ideal_succ_[v]) return false;
  return true;
}

bool ChordStabilizer::fully_correct() const {
  if (!ring_correct()) return false;
  const ChordGraph ideal = ChordGraph::compute(pos_);
  for (const Finger& f : ideal.fingers)
    if (fingers_[f.from][static_cast<std::size_t>(f.i - 1)] != f.to)
      return false;
  return true;
}

std::uint64_t ChordStabilizer::run(std::uint64_t max_rounds) {
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    if (ring_correct()) return r;
    step();
  }
  return max_rounds;
}

}  // namespace rechord::chord
