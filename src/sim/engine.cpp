#include "sim/engine.hpp"

#include <algorithm>

#include "audit/report.hpp"
#include "sim/frame_pool.hpp"

namespace mns::sim {

// Root coroutine wrapper: owns the process Task, reports completion and
// errors to the engine. On completion the engine destroys the frame from
// the final-suspend point, so finished processes cost nothing.
struct Engine::Root {
  struct promise_type : frame_pool::PoolAllocated {
    Engine* eng = nullptr;
    std::size_t root_index = 0;  // position in Engine::roots_ for O(1) retire
    bool daemon = false;
    Root get_return_object() {
      return Root{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // The frame is suspended at its final point: destroying it here is
        // well-defined and control returns to the engine's event loop.
        h.promise().eng->retire(h);
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      eng->process_failed(std::current_exception());
    }
  };
  std::coroutine_handle<promise_type> handle;
};

namespace {
Engine::Root make_root(Task<> t) { co_await t; }
}  // namespace

Engine::~Engine() { drop_processes(); }

void Engine::drop_processes() {
  // Swap out roots_ first: destroying a frame can (transitively) destroy
  // Tasks that are themselves roots-in-waiting, and must not observe a
  // half-cleared vector.
  std::vector<std::coroutine_handle<>> roots = std::move(roots_);
  roots_.clear();
  for (auto h : roots) {
    if (h) h.destroy();
  }
  // Pending event payloads capture handles into the frames just
  // destroyed; drop them unrun (~EventFn reclaims boxed closures).
  queue_.clear();
  slab_.clear();
  slab_free_.clear();
  slab_seq_.clear();
  tombstones_ = 0;
  nowq_.clear();
  nowq_head_ = 0;
  live_ = 0;
}

void Engine::schedule_future(std::int64_t at_ps, EventFn&& fn) {
  if (at_ps < now_.count_ps()) {
    throw std::logic_error("Engine::at: scheduling into the past");
  }
  queue_push(Key::make(at_ps, next_seq_++), std::move(fn));
}

// MNS_HOT: the slab and the queue's node pool grow amortized and reuse
// free slots; in steady state pushes recycle capacity without touching
// the allocator.
MNS_HOT std::uint32_t Engine::queue_push(Key key, EventFn&& fn) {
  // Park the payload in the slab; only (key, slot) enter the queue.
  std::uint32_t slot;
  if (!slab_free_.empty()) {
    slot = slab_free_.back();
    slab_free_.pop_back();
    slab_[slot] = std::move(fn);
    slab_seq_[slot] = key.seq();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
    slab_seq_.push_back(key.seq());
  }
  queue_.push(key, slot);
  return slot;
}

// MNS_HOT: roots_ grows amortized; slots are compacted on completion and
// capacity persists for the lifetime of the engine.
MNS_HOT void Engine::spawn(Task<> t, bool daemon) {
  Root root = make_root(std::move(t));
  root.handle.promise().eng = this;
  root.handle.promise().root_index = roots_.size();
  root.handle.promise().daemon = daemon;
  roots_.push_back(root.handle);
  if (!daemon) ++live_;
  // Start through the queue at the current time (spawn order = start
  // order) on the resume fast path — no closure, no boxing.
  at(now_, EventFn::resume(root.handle));
}

bool Engine::step() {
 again:
  const bool have_now = nowq_head_ < nowq_.size();
  if (!have_now && queue_.empty()) return false;
  if (events_processed_ >= event_limit_) throw_event_limit();
  std::int64_t at_ps;
  std::uint64_t seq;
  EventFn::Words fn;
  // The now-queue holds events at exactly now() in seq (FIFO) order; a
  // queued event competes only when it carries the same timestamp with a
  // smaller seq (scheduled for this instant before the clock reached it).
  bool take_queue = !have_now;
  if (have_now && !queue_.empty()) {
    const Key top = queue_.top().key;
    if (top.at_ps() == now_.count_ps() && top.seq() < nowq_[nowq_head_].seq) {
      take_queue = true;
    }
  }
  if (take_queue) {
    // Fetch the *next* pop's payload a whole event ahead of its use.
    if (const auto* next = queue_.peek_second()) {
      __builtin_prefetch(&slab_[next->slot]);
    }
    const auto e = queue_.pop();
    fn = slab_[e.slot].release();
    free_slot(e.slot);
    if (fn.fn == nullptr) {
      // Cancelled tombstone: discard without advancing the clock, counting
      // an event, or consulting the event limit budget beyond this check.
      MNS_AUDIT(tombstones_ > 0, "tombstone popped with zero outstanding");
      --tombstones_;
      goto again;
    }
    at_ps = e.key.at_ps();
    seq = e.key.seq();
  } else {
    NowEvent& ne = nowq_[nowq_head_++];
    at_ps = now_.count_ps();
    seq = ne.seq;
    fn = ne.fn.release();
    if (nowq_head_ == nowq_.size()) {
      nowq_.clear();
      nowq_head_ = 0;
    }
  }
  if (at_ps > time_limit_ps_) throw_time_limit(at_ps, fn.fn, fn.a, fn.b);
#if defined(MNS_AUDIT_ENABLED)
  {
    // A failed audit drops the popped payload unrun, like the time limit.
    EventFn held(fn.fn, fn.a, fn.b);
    MNS_AUDIT(at_ps >= now_.count_ps(),
              "event time regressed behind the clock");
    MNS_AUDIT(events_processed_ == 0 || at_ps > audit_last_at_.count_ps() ||
                  (at_ps == audit_last_at_.count_ps() &&
                   seq > audit_last_seq_),
              "determinism tie-break violated: equal-time events must pop "
              "in schedule (seq) order");
    fn = held.release();
  }
  audit_last_at_ = Time::ps(at_ps);
  audit_last_seq_ = seq;
#else
  (void)seq;
#endif
  now_ = Time::ps(at_ps);
  ++events_processed_;
  EventFn::invoke(fn);
  return true;
}

void Engine::throw_event_limit() const {
  throw EventLimitError(event_limit_);
}

void Engine::throw_time_limit(std::int64_t at_ps, EventFn::Raw fn, void* a,
                              void* b) const {
  // Progress watchdog horizon crossed: the queue is still live (this
  // event would have run), so this is a livelock, not a deadlock. The
  // popped payload is dropped unrun (a boxed closure is reclaimed).
  const EventFn unrun(fn, a, b);
  throw LivelockError(
      "engine clock would cross the configured time limit (" +
      Time::ps(time_limit_ps_).str() + ")\n  now           = " +
      now_.str() + "\n  next event at = " + Time::ps(at_ps).str() +
      "\n  events run    = " + std::to_string(events_processed_) +
      "\n  pending       = " + std::to_string(pending_events()) +
      "\n  live procs    = " + std::to_string(live_));
}

void Engine::run() {
  while (step()) {
    if (failure_) {
      auto e = failure_;
      failure_ = nullptr;
      std::rethrow_exception(e);
    }
  }
  if (live_ > 0) throw DeadlockError(live_);
}

std::int64_t Engine::next_event_at_ps() {
  if (nowq_head_ < nowq_.size()) return now_.count_ps();
  for (;;) {
    if (queue_.empty()) return INT64_MAX;
    const auto& top = queue_.top();
    if (slab_[top.slot]) return top.key.at_ps();
    // Cancelled tombstone on top: discard it so the reported time names
    // an event that will actually run (same bookkeeping as step()). Its
    // slot is already empty; only the slot goes back to the free list.
    free_slot(queue_.pop().slot);
    MNS_AUDIT(tombstones_ > 0, "tombstone popped with zero outstanding");
    --tombstones_;
  }
}

bool Engine::step_one() {
  const bool ran = step();
  if (failure_) {
    auto e = failure_;
    failure_ = nullptr;
    std::rethrow_exception(e);
  }
  return ran;
}

void Engine::retire(std::coroutine_handle<> h) {
  const auto rh = std::coroutine_handle<Root::promise_type>::from_address(
      h.address());
  if (!rh.promise().daemon) --live_;
  const std::size_t idx = rh.promise().root_index;
  // Swap-erase: root order is irrelevant, only liveness matters.
  roots_[idx] = roots_.back();
  if (roots_[idx] != h) {
    auto moved = std::coroutine_handle<Root::promise_type>::from_address(
        roots_[idx].address());
    moved.promise().root_index = idx;
  }
  roots_.pop_back();
  h.destroy();
}

void Engine::process_failed(std::exception_ptr e) {
  if (!failure_) failure_ = e;
}

void Engine::register_audits(audit::AuditReport& report) {
  report.add_check("sim::Engine", [this](audit::AuditReport::Scope& s) {
    s.require_eq(pending_events(), std::size_t{0},
                 "event queue not drained at finalize");
    s.require_eq(tombstones_, std::size_t{0},
                 "cancelled event tombstone(s) still parked at finalize");
    s.require_eq(live_, std::size_t{0},
                 "non-daemon process(es) still live at finalize");
    s.require(now_ >= Time::zero(), "clock below zero at finalize");
  });
}

}  // namespace mns::sim
