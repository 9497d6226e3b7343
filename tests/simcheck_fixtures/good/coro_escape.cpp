// known-good: every same-frame coroutine-lambda idiom the rule must not
// flag — awaited in place, passed to the synchronous run() driver, bound
// to a name that is only ever co_awaited — and a by-value capture handed
// to spawn().
#include <cstdint>

#include "fixture_prelude.hpp"

namespace fixgood {

fix::Task awaited_in_place() {
  std::int64_t budget = 100;
  co_await [&]() -> fix::Task {
    budget -= 1;  // safe: the outer frame is suspended, not gone
    co_return;
  }();
}

void run_driver(fix::Engine& eng) {
  std::int64_t budget = 100;
  eng.run([&]() -> fix::Task {
    co_await fix::sleep_ps(10);
    budget -= 1;  // safe: run() drains the engine before returning
  });
}

fix::Task named_and_awaited() {
  std::int64_t budget = 100;
  auto body = [&]() -> fix::Task {
    budget -= 1;  // safe: every use of `body` below is co_awaited
    co_return;
  };
  co_await body();
  co_await body();
}

void value_capture(fix::Engine& eng) {
  std::int64_t budget = 100;
  eng.spawn([budget]() -> fix::Task {
    co_await fix::sleep_ps(10);
    (void)budget;  // safe: captured by value, lives in the frame
  });
}

}  // namespace fixgood
