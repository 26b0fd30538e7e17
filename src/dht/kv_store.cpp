#include "dht/kv_store.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "ident/hashing.hpp"

namespace rechord::dht {
namespace {

/// Index of successor(h) in the ascending positions: the first position
/// >= h, wrapping to 0 past the top of the ring.
std::size_t successor_index(const std::vector<core::RingPos>& pos,
                            core::RingPos h) {
  const auto it = std::lower_bound(pos.begin(), pos.end(), h);
  return it == pos.end() ? 0 : static_cast<std::size_t>(it - pos.begin());
}

}  // namespace

RoutingView RoutingView::snapshot(const core::Network& net) {
  std::vector<std::uint32_t> live = net.live_owners();
  std::sort(live.begin(), live.end(), [&net](std::uint32_t a, std::uint32_t b) {
    return net.owner_pos(a) < net.owner_pos(b);
  });
  RoutingView view;
  view.pos.reserve(live.size());
  for (std::uint32_t o : live) view.pos.push_back(net.owner_pos(o));
  view.owners = std::move(live);
  return view;
}

std::uint32_t RoutingView::responsible(core::RingPos h) const {
  assert(!pos.empty());
  return owners[successor_index(pos, h)];
}

std::vector<std::uint32_t> RoutingView::replica_set(core::RingPos h,
                                                    unsigned replicas) const {
  const std::size_t want = std::min<std::size_t>(replicas, owners.size());
  std::vector<std::uint32_t> set;
  set.reserve(want);
  for (std::size_t i = successor_index(pos, h); set.size() < want; ++i) {
    if (i == owners.size()) i = 0;
    set.push_back(owners[i]);
  }
  return set;
}

void KvStore::ensure_owner(std::uint32_t owner) {
  if (owner >= storage_.size()) storage_.resize(owner + 1);
}

void KvStore::store_copy(std::uint32_t owner, core::RingPos h, Record rec) {
  ensure_owner(owner);
  auto& slot = storage_[owner][h];
  if (slot.version <= rec.version) slot = std::move(rec);
}

std::size_t KvStore::rebalance(const RoutingView& view) {
  // Collect the newest surviving copy of every record, then rewrite the
  // replica placement from scratch.
  std::map<core::RingPos, Record> newest;
  for (const auto& per_owner : storage_) {
    for (const auto& [h, rec] : per_owner) {
      auto& slot = newest[h];
      if (slot.version <= rec.version) slot = rec;
    }
  }
  std::size_t moved = 0;
  std::vector<std::map<core::RingPos, Record>> fresh(storage_.size());
  for (auto& [h, rec] : newest) {
    for (std::uint32_t owner : view.replica_set(h, opt_.replicas)) {
      if (owner >= fresh.size()) fresh.resize(owner + 1);
      const bool had = owner < storage_.size() &&
                       storage_[owner].find(h) != storage_[owner].end();
      if (!had) ++moved;
      fresh[owner][h] = rec;
    }
  }
  storage_ = std::move(fresh);
  return moved;
}

std::size_t KvStore::handoff(const RoutingView& view,
                             std::uint32_t leaving_owner) {
  if (leaving_owner >= storage_.size()) return 0;
  std::size_t transferred = 0;
  auto records = std::move(storage_[leaving_owner]);
  storage_[leaving_owner].clear();
  for (auto& [h, rec] : records) {
    // Next responsible peers, excluding the leaver.
    for (std::uint32_t owner : view.replica_set(h, opt_.replicas + 1)) {
      if (owner == leaving_owner) continue;
      ensure_owner(owner);
      if (storage_[owner].find(h) == storage_[owner].end()) {
        store_copy(owner, h, rec);
        ++transferred;
        break;
      }
    }
  }
  return transferred;
}

void KvStore::drop(std::uint32_t crashed_owner) {
  if (crashed_owner < storage_.size()) storage_[crashed_owner].clear();
}

void KvStore::put_at(std::uint32_t owner, std::string_view key,
                     std::string value) {
  const core::RingPos h = ident::hash_name(key);
  store_copy(owner, h, {std::string(key), std::move(value), ++version_clock_});
}

const std::string* KvStore::get_at(std::uint32_t owner,
                                   std::string_view key) const {
  if (owner >= storage_.size()) return nullptr;
  const core::RingPos h = ident::hash_name(key);
  const auto it = storage_[owner].find(h);
  if (it == storage_[owner].end() || it->second.key != key) return nullptr;
  return &it->second.value;
}

bool KvStore::any_live_copy(std::string_view key,
                            const core::Network& net) const {
  const core::RingPos h = ident::hash_name(key);
  const std::uint32_t n =
      static_cast<std::uint32_t>(std::min<std::size_t>(storage_.size(),
                                                       net.owner_count()));
  for (std::uint32_t owner = 0; owner < n; ++owner) {
    if (!net.owner_alive(owner)) continue;
    const auto it = storage_[owner].find(h);
    if (it != storage_[owner].end() && it->second.key == key) return true;
  }
  return false;
}

std::size_t KvStore::total_records() const {
  std::size_t n = 0;
  for (const auto& per_owner : storage_) n += per_owner.size();
  return n;
}

std::size_t KvStore::records_on(std::uint32_t owner) const {
  return owner < storage_.size() ? storage_[owner].size() : 0;
}

}  // namespace rechord::dht
