// Shared scaffolding for the simcheck rule fixtures: a minimal coroutine
// task type and a tiny engine facade, just enough for the known-bad and
// known-good translation units to exercise each rule (the token frontend
// only needs the shapes, but the fixtures stay valid C++). Deliberately
// dependency-free.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>

#define MNS_HOT

namespace fix {

struct Task {
  struct promise_type {
    Task get_return_object() { return {}; }
    std::suspend_never initial_suspend() { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {}
  };
  // Awaitable, so the co_await idioms in the fixtures compile as written.
  bool await_ready() { return true; }
  void await_suspend(std::coroutine_handle<>) {}
  void await_resume() {}
};

struct Awaiter {
  bool await_ready() { return true; }
  void await_suspend(std::coroutine_handle<>) {}
  void await_resume() {}
};

inline Awaiter sleep_ps(std::int64_t) { return {}; }

struct Engine {
  // Defers the callable: the canonical frame-escape sink.
  template <class F>
  void spawn(F&&) {}
  // Drives the simulation to completion synchronously: same-frame.
  template <class F>
  void run(F&& f) { (void)f; }
};

}  // namespace fix
