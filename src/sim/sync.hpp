// Synchronization primitives for simulated processes.
//
// All wake-ups go through the engine's event queue (zero-delay events), so
// the order in which blocked coroutines resume is deterministic and no
// resume happens inside the notifier's stack frame. Hand-off is direct:
// a sender assigns its message to a specific waiter, so a third party
// arriving between notify and resume cannot steal it.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/annotations.hpp"

namespace mns::sim {

/// FIFO queue over a vector whose capacity survives draining: after
/// warm-up, pushes and pops never touch the allocator (a std::deque
/// allocates and frees a block every few elements as a FIFO walks it).
template <class T>
class Fifo {
 public:
  bool empty() const noexcept { return head_ == items_.size(); }
  std::size_t size() const noexcept { return items_.size() - head_; }
  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }
  /// The i-th element from the front.
  T& operator[](std::size_t i) { return items_[head_ + i]; }

  /// MNS_HOT: amortized growth; the capacity is kept across drains.
  MNS_HOT void push_back(T x) { items_.push_back(std::move(x)); }

  T pop_front() {
    T x = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= 32 && 2 * head_ >= items_.size()) {
      // Never fully drained: slide the live tail down so the vector does
      // not grow with the total number of elements ever queued.
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return x;
  }

  /// Remove the i-th element from the front, keeping FIFO order.
  void erase(std::size_t i) {
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(head_ + i));
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// One-shot event. Awaiting after fire() completes immediately; firing
/// releases all current waiters in wait order, each through its own
/// zero-delay event. fire() is idempotent. A waiter is a coroutine
/// (wait()) or a frame-free continuation (notify()); the first is held
/// inline, since an MPI request has at most one.
class Trigger {
 public:
  explicit Trigger(Engine& eng) : eng_(&eng) {}

  bool fired() const { return fired_; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    if (first_) eng_->after(Time::zero(), std::move(first_));
    for (auto& w : more_) eng_->after(Time::zero(), std::move(w));
    more_.clear();
  }

  /// Re-arm a fired trigger. Only valid when nothing is waiting.
  void reset() {
    if (first_) {
      throw std::logic_error("Trigger::reset with pending waiters");
    }
    fired_ = false;
  }

  /// Wait without a frame: `c` runs as the event a coroutine waiter's
  /// resume would have been. Only valid before fire().
  void notify(Cont c) { add(c.event()); }

  auto wait() {
    struct Awaiter {
      Trigger& t;
      bool await_ready() const noexcept { return t.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        t.add(EventFn::resume(h));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  /// MNS_HOT: more_ keeps its capacity; an MPI request never uses it.
  MNS_HOT void add(EventFn w) {
    if (!first_) {
      first_ = std::move(w);
    } else {
      more_.push_back(std::move(w));
    }
  }

  Engine* eng_;
  bool fired_ = false;
  EventFn first_;
  std::vector<EventFn> more_;  // waiters after the first
};

/// Unbounded FIFO mailbox. Senders never block; receivers block until a
/// message is available. Messages are delivered in send order; with
/// multiple concurrent receivers each message goes to exactly one.
template <class T>
class Mailbox {
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> slot;
  };

 public:
  explicit Mailbox(Engine& eng) : eng_(&eng) {}

  void send(T msg) {
    if (!waiters_.empty()) {
      Waiter* w = waiters_.pop_front();
      w->slot = std::move(msg);  // direct hand-off: cannot be stolen
      eng_->resume_after(Time::zero(), w->handle);
      return;
    }
    queue_.push_back(std::move(msg));
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  auto receive() {
    struct Awaiter : Waiter {
      Mailbox& mb;
      explicit Awaiter(Mailbox& m) : mb(m) {}
      bool await_ready() const noexcept { return !mb.queue_.empty(); }
      void await_suspend(std::coroutine_handle<> h) {
        this->handle = h;
        mb.waiters_.push_back(this);
      }
      T await_resume() {
        if (this->slot.has_value()) return std::move(*this->slot);
        return mb.queue_.pop_front();
      }
    };
    return Awaiter{*this};
  }

 private:
  Engine* eng_;
  Fifo<T> queue_;
  Fifo<Waiter*> waiters_;
};

}  // namespace mns::sim
