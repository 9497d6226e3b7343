// Synchronization primitives for simulated processes.
//
// All wake-ups go through the engine's event queue (zero-delay events), so
// the order in which blocked coroutines resume is deterministic and no
// resume happens inside the notifier's stack frame. Hand-off is direct:
// a sender/releaser assigns its message/token to a specific waiter, so a
// third party arriving between notify and resume cannot steal it.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
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
/// releases all current waiters in wait order. fire() is idempotent.
/// The first waiter is held inline: an MPI request has at most one.
class Trigger {
 public:
  explicit Trigger(Engine& eng) : eng_(&eng) {}

  bool fired() const { return fired_; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    if (first_) {
      eng_->resume_after(Time::zero(), std::exchange(first_, {}));
    }
    for (auto h : more_) {
      eng_->resume_after(Time::zero(), h);
    }
    more_.clear();
  }

  /// Re-arm a fired trigger. Only valid when no coroutine is waiting.
  void reset() {
    if (first_) {
      throw std::logic_error("Trigger::reset with pending waiters");
    }
    fired_ = false;
  }

  auto wait() {
    struct Awaiter {
      Trigger& t;
      bool await_ready() const noexcept { return t.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        if (!t.first_) {
          t.first_ = h;
        } else {
          t.more_.push_back(h);
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* eng_;
  bool fired_ = false;
  std::coroutine_handle<> first_;
  std::vector<std::coroutine_handle<>> more_;  // waiters after the first
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

/// Counting semaphore with direct token hand-off.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::size_t initial) : eng_(&eng), count_(initial) {}

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool handed_off = false;
      bool await_ready() const noexcept {
        return s.count_ > 0 && s.waiters_.empty();
      }
      void await_suspend(std::coroutine_handle<> h) {
        s.waiters_.push_back({h, &handed_off});
      }
      void await_resume() noexcept {
        if (!handed_off) --s.count_;  // token taken from the free pool
      }
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      auto [h, flag] = waiters_.front();
      waiters_.pop_front();
      *flag = true;  // token handed directly to this waiter
      eng_->resume_after(Time::zero(), h);
      return;
    }
    ++count_;
  }

  std::size_t available() const { return count_; }

 private:
  struct Entry {
    std::coroutine_handle<> handle;
    bool* handed_off;
  };
  Engine* eng_;
  std::size_t count_;
  std::deque<Entry> waiters_;
};

/// Reusable barrier for `n` participants (used in tests and by the
/// benchmark drivers to align phases; MPI_Barrier is implemented in the MPI
/// layer with real messages, not with this).
class SimBarrier {
 public:
  SimBarrier(Engine& eng, std::size_t n) : eng_(&eng), n_(n) {}

  auto arrive_and_wait() {
    struct Awaiter {
      SimBarrier& b;
      bool await_ready() const noexcept { return b.n_ == 1; }
      void await_suspend(std::coroutine_handle<> h) {
        b.waiters_.push_back(h);
        if (b.waiters_.size() == b.n_) {
          for (auto w : b.waiters_) {
            b.eng_->resume_after(Time::zero(), w);
          }
          b.waiters_.clear();
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* eng_;
  std::size_t n_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace mns::sim
