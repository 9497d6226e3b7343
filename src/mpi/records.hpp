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
// on the receiver's). A message whose two ends share a partition takes
// its record from that partition's free list and returns it there, so
// every list is touched by one thread only. A message crossing
// partitions gets a heap record instead, freed wherever its last
// reference drops (the fabric allocates its split-flow descriptor for
// such messages anyway). The reference count is atomic for that case.
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
  RecordPool<T>* home = nullptr;  // null: heap record (crossed partitions)
  T* next_free = nullptr;
};

/// One partition's free list of T. Grows only while more records are
/// live than ever before.
template <class T>
class RecordPool {
 public:
  /// MNS_HOT: slab growth is warm-up only; afterwards take() pops.
  MNS_HOT T* take() {
    if (free_ != nullptr) return std::exchange(free_, free_->next_free);
    slab_.push_back(std::make_unique<T>());
    slab_.back()->home = this;
    return slab_.back().get();
  }
  void put(T* r) {
    r->next_free = free_;
    free_ = r;
  }

 private:
  std::vector<std::unique_ptr<T>> slab_;
  T* free_ = nullptr;
};

/// Drop one reference; the last one recycles the record.
template <class T>
void release(T* r) {
  if (r->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (r->home != nullptr) {
    r->home->put(r);
  } else {
    delete r;
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
  /// references. The caller (re)initializes every field it uses.
  /// MNS_HOT: the heap record is one allocation per cross-partition
  /// message; messages within a partition reuse pooled records.
  MNS_HOT T* acquire(int a, int b, std::uint32_t refs) {
    const int pa = fabric_->partition_of(a);
    T* r = pa == fabric_->partition_of(b)
               ? pools_[static_cast<std::size_t>(pa)].take()
               : new T();
    r->refs.store(refs, std::memory_order_relaxed);
    return r;
  }

 private:
  const model::NetFabric* fabric_;
  std::unique_ptr<RecordPool<T>[]> pools_;
};

}  // namespace mns::mpi
