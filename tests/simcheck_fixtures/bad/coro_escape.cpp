// known-bad: coroutine lambdas that capture by reference and escape their
// enclosing frame. The lambda object dies when the function returns; the
// coroutine frame built from it lives on — the captured reference dangles
// at the first suspension point. Only the three idioms in
// good/coro_escape.cpp are same-frame; every other use is a finding.
#include <cstdint>
#include <functional>

#include "fixture_prelude.hpp"

namespace fixbad {

// Handed to spawn(), which defers it beyond the frame.
void start(fix::Engine& eng) {
  std::int64_t local_budget = 100;
  eng.spawn([&]() -> fix::Task {  // fires: coro-ref-escape
    co_await fix::sleep_ps(10);
    local_budget -= 1;  // dangling: start() has long returned
  });
}

// Named, but the name is not only ever co_awaited: its coroutine is
// spawned.
void start_named(fix::Engine& eng) {
  std::int64_t local_budget = 100;
  auto body = [&]() -> fix::Task {  // fires: coro-ref-escape
    co_await fix::sleep_ps(10);
    local_budget -= 1;
  };
  eng.spawn(body());
}

// Invoked in place, but the running coroutine goes to a callee that is
// not known to finish it within the frame.
template <class T>
void keep(T&&) {}

void start_kept() {
  std::int64_t local_budget = 100;
  keep([&]() -> fix::Task {  // fires: coro-ref-escape
    co_await fix::sleep_ps(10);
    local_budget -= 1;
  }());
}

// Invoked where it is bound: `t` holds the task, not the lambda, and the
// closure the coroutine frame reads its captures through dies at the ';'.
fix::Task start_bound_task() {
  std::int64_t local_budget = 100;
  auto t = [&]() -> fix::Task {  // fires: coro-ref-escape
    co_await fix::sleep_ps(10);
    local_budget -= 1;
  }();
  co_await t;
}

// Stored into members, from a default member initializer and from a
// constructor initializer list: neither is a same-frame idiom. The second
// captures a constructor parameter that dies when the constructor returns.
struct Holder {
  std::int64_t budget = 100;
  std::function<fix::Task()> first_ =
      [&]() -> fix::Task {  // fires: coro-ref-escape
    co_await fix::sleep_ps(10);
    budget -= 1;
  };
  std::function<fix::Task()> second_;

  explicit Holder(std::int64_t start)
      : second_([&]() -> fix::Task {  // fires: coro-ref-escape
          co_await fix::sleep_ps(10);
          start -= 1;
        }) {}
};

}  // namespace fixbad
