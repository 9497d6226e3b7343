// known-bad: wall-clock reads in library code. Simulated time comes from
// the engine; a host clock makes two runs of one configuration differ.
// Every line a pattern rule must flag carries a `fires:` marker, and the
// fixture driver requires findings on exactly the marked lines.
#include <chrono>
#include <cstdint>
#include <ctime>
#include <sys/time.h>

namespace fixbad {

std::int64_t host_ns() {
  auto t = std::chrono::steady_clock::now();  // fires: wall-clock
  return t.time_since_epoch().count();
}

std::int64_t host_seconds() {
  return static_cast<std::int64_t>(time(nullptr));  // fires: wall-clock
}

std::int64_t host_us() {
  timeval tv{};
  gettimeofday(&tv, nullptr);  // fires: wall-clock
  return tv.tv_sec * 1000000 + tv.tv_usec;
}

}  // namespace fixbad
