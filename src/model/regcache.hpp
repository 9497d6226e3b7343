// Memory registration with a pin-down cache.
//
// InfiniBand (VAPI) and Myrinet (GM) require communication buffers to be
// registered (pinned + translated) before the NIC may DMA them. Because
// registration is expensive, MPI implementations keep registrations alive
// and de-register lazily (Tezuka et al.'s pin-down cache). Whether an
// application reuses buffers therefore decides whether the zero-copy path
// pays the registration cost every time — the mechanism behind the paper's
// Figs. 7 and 8.
//
// Buffers are identified by their (virtual address, length); the simulator
// uses synthetic addresses, which is all the cache semantics need.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "sim/time.hpp"

namespace mns::audit {
class AuditReport;
}

namespace mns::model {

struct RegCacheConfig {
  sim::Time register_base;      // per-registration syscall/pin cost
  sim::Time register_per_page;  // per-page translate+pin cost
  sim::Time deregister_cost;    // eviction cost (lazy dereg)
  std::uint64_t page_bytes;
  std::uint64_t capacity_bytes;  // max pinned bytes kept in the cache
};

class RegistrationCache {
 public:
  explicit RegistrationCache(const RegCacheConfig& cfg) : cfg_(cfg) {}

  /// Ensure [addr, addr+bytes) is registered. Returns the host CPU time
  /// this costs (zero on a cache hit). The caller charges it to its Cpu.
  /// Never fails — the fault hook is consulted only by try_acquire().
  sim::Time acquire(std::uint64_t addr, std::uint64_t bytes);

  /// Fallible acquire: consults the fault hook first. On an injected
  /// failure the registration syscall is charged (register_base) but the
  /// cache is left untouched and ok == false; the caller chooses its
  /// degradation path (eager fallback or retry via acquire()).
  struct Acquired {
    sim::Time cost;
    bool ok;
  };
  Acquired try_acquire(std::uint64_t addr, std::uint64_t bytes) {
    if (fail_hook_ != nullptr && fail_hook_(fail_ctx_)) {
      ++acquires_;
      ++failures_;
      return {cfg_.register_base, false};
    }
    return {acquire(addr, bytes), true};
  }

  /// Deterministic registration-failure injection (src/fault): `fn(ctx)`
  /// returning true fails the next try_acquire. Raw function pointer, not
  /// std::function — this sits on the rendezvous hot path.
  using FailHook = bool (*)(void*);
  void set_fail_hook(FailHook fn, void* ctx) {
    fail_hook_ = fn;
    fail_ctx_ = ctx;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t pinned_bytes() const { return pinned_bytes_; }
  std::uint64_t evictions() const { return evictions_; }

  /// Drop everything (e.g. between benchmark repetitions).
  void clear();

  const RegCacheConfig& config() const { return cfg_; }

  /// Finalize-time conservation checks (see audit/report.hpp):
  /// pinned_bytes == sum of live regions, hits + misses == acquires,
  /// region count conserved across inserts/evictions/clears, and the
  /// pinned total respects capacity (one oversized region excepted).
  void register_audits(audit::AuditReport& report, std::string name) const;

#if defined(MNS_AUDIT_ENABLED)
  /// Fault injection for audit tests only: desynchronize the pinned-byte
  /// counter from the live regions, as a lost deregistration would.
  void debug_leak_pinned_for_test(std::uint64_t bytes) {
    pinned_bytes_ += bytes;
  }
#endif

 private:
  struct Region {
    std::uint64_t bytes;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  using RegionMap = std::unordered_map<std::uint64_t, Region>;

  sim::Time register_cost(std::uint64_t bytes) const;
  /// Remove a region, keeping its list and map nodes for reuse.
  void drop(RegionMap::iterator it);

  RegCacheConfig cfg_;
  RegionMap regions_;             // keyed by base addr
  std::list<std::uint64_t> lru_;  // front = most recent
  std::list<std::uint64_t> spare_lru_;  // list nodes of dropped regions
  RegionMap::node_type spare_region_;   // map node of the last drop
  std::uint64_t pinned_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t reregisters_ = 0;     // same-base re-registrations (extent grew)
  std::uint64_t cleared_regions_ = 0;  // regions dropped by clear()
  std::uint64_t failures_ = 0;         // injected registration failures
  FailHook fail_hook_ = nullptr;
  void* fail_ctx_ = nullptr;
};

}  // namespace mns::model
