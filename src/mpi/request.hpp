// Non-blocking request handles.
#pragma once

#include <atomic>  // simlint-allow: threading (cross-partition ledger)
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/annotations.hpp"

namespace mns::mpi {

/// Conservation bookkeeping for requests, owned by the Mpi job: at
/// finalize every created request must be completed exactly once. The
/// double-complete count makes the violation visible in every build; in
/// audit builds the MNS_AUDIT in complete() additionally throws at the
/// offending call site. Counters are relaxed atomics: ranks on different
/// PDES partitions report concurrently, and only the finalize-time sums
/// (read after every thread has parked) are meaningful.
struct RequestLedger {
  // simlint-allow: threading
  std::atomic<std::uint64_t> created{0};
  // simlint-allow: threading
  std::atomic<std::uint64_t> completed{0};
  // simlint-allow: threading
  std::atomic<std::uint64_t> double_completed{0};
};

class RequestPool;

/// One MPI request. Devices hold plain pointers to it and complete it
/// exactly once; Request handles count references. A pooled state goes
/// back to its rank's pool once it is complete and no handle is left, so
/// a device must not touch a request after completing it.
struct RequestState {
  explicit RequestState(sim::Engine& eng, RequestLedger* ledger = nullptr)
      : trig(eng), ledger(ledger) {
    if (ledger) ledger->created.fetch_add(1, std::memory_order_relaxed);
  }

  void complete(const Status& s) {
    MNS_AUDIT(!done, "RequestState completed twice");
    if (ledger) {
      if (done) {
        ledger->double_completed.fetch_add(1, std::memory_order_relaxed);
      } else {
        ledger->completed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    status = s;
    done = true;
    trig.fire();
    if (refs_ == 0) recycle();
  }

  bool done = false;
  Status status{};
  sim::Trigger trig;
  RequestLedger* ledger = nullptr;

 private:
  friend class Request;
  friend class RequestPool;

  void unref() {
    if (--refs_ == 0 && done) recycle();
  }
  inline void recycle();

  std::uint32_t refs_ = 0;  // Request handles (owner partition only)
  RequestPool* pool_ = nullptr;  // null: caller-owned, never recycled
  RequestState* next_free_ = nullptr;
};

/// Per-rank free list of request states. Every touch of a rank's requests
/// (creation, completion, handle copies) happens on the partition owning
/// the rank, so the list needs no synchronization. It grows only while
/// more requests are live than ever before.
class RequestPool {
 public:
  explicit RequestPool(sim::Engine& eng) : eng_(&eng) {}
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  /// MNS_HOT: the slab grows only past the peak number of live requests.
  MNS_HOT RequestState* make(RequestLedger* ledger) {
    if (free_ != nullptr) {
      RequestState* st = std::exchange(free_, free_->next_free_);
      st->done = false;
      st->status = Status{};
      st->trig.reset();
      st->ledger = ledger;
      if (ledger) ledger->created.fetch_add(1, std::memory_order_relaxed);
      return st;
    }
    slab_.push_back(std::make_unique<RequestState>(*eng_, ledger));
    slab_.back()->pool_ = this;
    return slab_.back().get();
  }

 private:
  friend struct RequestState;
  void put(RequestState* st) {
    st->next_free_ = free_;
    free_ = st;
  }

  sim::Engine* eng_;
  std::vector<std::unique_ptr<RequestState>> slab_;
  RequestState* free_ = nullptr;
};

inline void RequestState::recycle() {
  if (pool_ != nullptr) pool_->put(this);
}

/// Counted handle; copyable like an MPI_Request. A default-constructed
/// Request is the "null request": already complete with an empty Status.
class Request {
 public:
  Request() = default;
  explicit Request(RequestState* st) : st_(st) {
    if (st_) ++st_->refs_;
  }
  Request(const Request& o) : st_(o.st_) {
    if (st_) ++st_->refs_;
  }
  Request(Request&& o) noexcept : st_(std::exchange(o.st_, nullptr)) {}
  Request& operator=(Request o) noexcept {
    std::swap(st_, o.st_);
    return *this;
  }
  ~Request() {
    if (st_) st_->unref();
  }

  bool valid() const { return st_ != nullptr; }
  bool done() const { return !st_ || st_->done; }
  const Status& status() const {
    static const Status kEmpty{};
    return st_ ? st_->status : kEmpty;
  }

  /// Awaitable completion; resolves immediately if already done.
  sim::Task<Status> await_done() const {
    if (st_ && !st_->done) co_await st_->trig.wait();
    co_return st_ ? st_->status : Status{};
  }

  RequestState* state() const { return st_; }

 private:
  RequestState* st_ = nullptr;
};

}  // namespace mns::mpi
