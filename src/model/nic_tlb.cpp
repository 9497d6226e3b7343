#include "model/nic_tlb.hpp"

#include <iterator>

#include "util/annotations.hpp"

namespace mns::model {

// MNS_HOT: a hit splices its list node to the front and a miss at
// capacity re-keys the evicted page's list and map nodes, so the LRU
// allocates only while the table fills for the first time.
MNS_HOT void NicTlb::touch(std::uint64_t page, bool& missed) {
  const auto it = map_.find(page);
  if (it != map_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  ++misses_;
  missed = true;
  if (map_.size() >= cfg_.entries && !lru_.empty()) {
    // Evict the least recent page and reuse both of its nodes.
    auto node = map_.extract(lru_.back());
    lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
    lru_.front() = page;
    node.key() = page;
    node.mapped() = lru_.begin();
    map_.insert(std::move(node));
    return;
  }
  lru_.push_front(page);
  map_.emplace(page, lru_.begin());
}

sim::Time NicTlb::access(std::uint64_t addr, std::uint64_t bytes) {
  const std::uint64_t first = addr / cfg_.page_bytes;
  const std::uint64_t last =
      bytes == 0 ? first : (addr + bytes - 1) / cfg_.page_bytes;
  sim::Time stall;
  bool any_missed = false;
  for (std::uint64_t page = first; page <= last; ++page) {
    bool missed = false;
    touch(page, missed);
    if (missed) stall += cfg_.miss_cost;
    any_missed = any_missed || missed;
  }
  if (any_missed) stall += cfg_.miss_cost_base;
  return stall;
}

void NicTlb::clear() {
  map_.clear();
  lru_.clear();
}

}  // namespace mns::model
