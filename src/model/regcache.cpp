#include "model/regcache.hpp"

#include "audit/audit.hpp"
#include "audit/report.hpp"
#include "util/annotations.hpp"

namespace mns::model {

sim::Time RegistrationCache::register_cost(std::uint64_t bytes) const {
  const std::uint64_t pages =
      (bytes + cfg_.page_bytes - 1) / cfg_.page_bytes;
  return cfg_.register_base +
         cfg_.register_per_page * static_cast<std::int64_t>(pages);
}

// MNS_HOT: a hit splices its LRU node to the front; a dropped region
// parks its list node on spare_lru_ and its map node on spare_region_, and
// the next insert re-keys them, so the cache allocates only while it
// holds more regions than ever before.
MNS_HOT sim::Time RegistrationCache::acquire(std::uint64_t addr,
                                             std::uint64_t bytes) {
  ++acquires_;
  const auto it = regions_.find(addr);
  if (it != regions_.end() && it->second.bytes >= bytes) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return sim::Time::zero();
  }

  ++misses_;
  sim::Time cost;
  if (it != regions_.end()) {
    // Same base address but longer extent: re-register the region.
    MNS_AUDIT(pinned_bytes_ >= it->second.bytes,
              "regcache: pinned_bytes underflow on re-registration");
    pinned_bytes_ -= it->second.bytes;
    drop(it);
    ++reregisters_;
    cost += cfg_.deregister_cost;
  }

  // Evict least-recently-used regions until the new one fits.
  while (pinned_bytes_ + bytes > cfg_.capacity_bytes && !lru_.empty()) {
    const auto vit = regions_.find(lru_.back());
    MNS_AUDIT(vit != regions_.end(),
              "regcache: LRU victim has no region entry");
    pinned_bytes_ -= vit->second.bytes;
    drop(vit);
    cost += cfg_.deregister_cost;
    ++evictions_;
  }

  cost += register_cost(bytes);
  if (!spare_lru_.empty()) {
    lru_.splice(lru_.begin(), spare_lru_, spare_lru_.begin());
    lru_.front() = addr;
  } else {
    lru_.push_front(addr);
  }
  if (!spare_region_.empty()) {
    spare_region_.key() = addr;
    spare_region_.mapped() = Region{bytes, lru_.begin()};
    regions_.insert(std::move(spare_region_));
  } else {
    regions_.emplace(addr, Region{bytes, lru_.begin()});
  }
  pinned_bytes_ += bytes;
  return cost;
}

void RegistrationCache::drop(RegionMap::iterator it) {
  spare_lru_.splice(spare_lru_.begin(), lru_, it->second.lru_pos);
  // One parked map node is enough: every drop is followed by the insert
  // that re-keys it (a miss drops at most a few regions).
  spare_region_ = regions_.extract(it);
}

void RegistrationCache::clear() {
  cleared_regions_ += regions_.size();
  regions_.clear();
  lru_.clear();
  spare_lru_.clear();
  spare_region_ = {};
  pinned_bytes_ = 0;
}

void RegistrationCache::register_audits(audit::AuditReport& report,
                                        std::string name) const {
  report.add_check(std::move(name), [this](audit::AuditReport::Scope& s) {
    std::uint64_t live_bytes = 0;
    for (const auto& [addr, region] : regions_) live_bytes += region.bytes;
    s.require_eq(live_bytes, pinned_bytes_,
                 "pinned_bytes out of sync with live regions");
    s.require_eq(lru_.size(), regions_.size(),
                 "LRU list and region map diverged");
    for (const std::uint64_t addr : lru_) {
      const auto it = regions_.find(addr);
      if (it == regions_.end()) {
        s.fail("LRU entry " + std::to_string(addr) + " has no region");
      } else {
        s.require(*it->second.lru_pos == addr,
                  "region's lru_pos does not point at its LRU entry");
      }
    }
    s.require_eq(hits_ + misses_ + failures_, acquires_,
                 "hits + misses + injected failures != acquires");
    s.require_eq(misses_,
                 regions_.size() + evictions_ + reregisters_ +
                     cleared_regions_,
                 "region conservation broken: every miss inserts one "
                 "region; inserts must equal live + evicted + "
                 "re-registered + cleared");
    s.require(pinned_bytes_ <= cfg_.capacity_bytes || regions_.size() == 1,
              "pinned_bytes " + std::to_string(pinned_bytes_) +
                  " exceeds capacity " +
                  std::to_string(cfg_.capacity_bytes) +
                  " with more than one region resident");
  });
}

}  // namespace mns::model
