// Per-message device records.
//
// A message's device-side state (envelope, request, captured payload,
// rendezvous handshake) lives in one record that the fabric callbacks
// reference by pointer, so each callback captures two words — the
// channel and the record — and is stored inline (sim::EventFn). Records
// are reference counted by the callbacks that still need them and
// recycled through free lists.
//
// Ownership under partitioned (PDES) execution: the two halves of a
// message may run on different partition threads (remote_arrival runs
// on the receiver's). Every record comes from the sender's partition's
// pool, which owns it until the channel is destroyed, so a run aborted
// mid-flight (a livelock or deadlock diagnostic) leaks nothing. A message
// whose two ends share a partition returns its record to that pool's
// free list, touched by one thread only. A message crossing partitions
// may drop its last reference on the receiver's thread, so its record
// goes back through the pool's atomic remote-free stack, which the
// owning thread takes whole when its free list runs dry. The reference
// count is atomic for that case.
#pragma once

#include <atomic>  // simlint-allow: threading (cross-partition records)
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "model/netfabric.hpp"
#include "util/annotations.hpp"

namespace mns::mpi {

template <class T>
class RecordPool;

/// Base of a record type T (CRTP): its reference count and free-list
/// links.
template <class T>
struct PooledRecord {
  // simlint-allow: threading
  std::atomic<std::uint32_t> refs{0};
  bool crossed = false;  // the message spans two partitions
  RecordPool<T>* home = nullptr;
  T* next_free = nullptr;
};

/// One partition's records of T. Grows only while more records are live
/// than ever before. take() and put() run on the owning partition's
/// thread; put_remote() on any thread.
template <class T>
class RecordPool {
 public:
  /// MNS_HOT: slab growth is warm-up only; afterwards take() pops.
  MNS_HOT T* take() {
    if (free_ == nullptr &&
        remote_free_.load(std::memory_order_relaxed) != nullptr) {
      free_ = remote_free_.exchange(nullptr, std::memory_order_acquire);
    }
    if (free_ != nullptr) return std::exchange(free_, free_->next_free);
    slab_.push_back(std::make_unique<T>());
    slab_.back()->home = this;
    return slab_.back().get();
  }
  void put(T* r) {
    r->next_free = free_;
    free_ = r;
  }
  /// Push-only stack with a take-all consumer, so a recycled head (ABA)
  /// still links correctly.
  void put_remote(T* r) {
    r->next_free = remote_free_.load(std::memory_order_relaxed);
    while (!remote_free_.compare_exchange_weak(r->next_free, r,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
    }
  }

 private:
  std::vector<std::unique_ptr<T>> slab_;
  T* free_ = nullptr;
  // simlint-allow: threading
  std::atomic<T*> remote_free_{nullptr};
};

/// Drop one reference; the last one recycles the record.
template <class T>
void release(T* r) {
  if (r->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (r->crossed) {
    r->home->put_remote(r);
  } else {
    r->home->put(r);
  }
}

/// A channel's records of type T: one free list per fabric partition.
template <class T>
class Records {
 public:
  explicit Records(const model::NetFabric& fabric)
      : fabric_(&fabric),
        pools_(std::make_unique<RecordPool<T>[]>(
            static_cast<std::size_t>(fabric.partitions()))) {}

  /// A record for a message from node `a` to node `b`, holding `refs`
  /// references, taken on `a`'s partition thread. The caller
  /// (re)initializes every field it uses.
  MNS_HOT T* acquire(int a, int b, std::uint32_t refs) {
    const int pa = fabric_->partition_of(a);
    T* r = pools_[static_cast<std::size_t>(pa)].take();
    r->crossed = pa != fabric_->partition_of(b);
    r->refs.store(refs, std::memory_order_relaxed);
    return r;
  }

 private:
  const model::NetFabric* fabric_;
  std::unique_ptr<RecordPool<T>[]> pools_;
};

}  // namespace mns::mpi
