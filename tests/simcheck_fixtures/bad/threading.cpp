// known-bad: threading primitives outside sweep/ and pdes/. A simulation
// is single-threaded by contract, which is what keeps --jobs N
// bit-identical to --jobs 1. The allow on the <atomic> line covers that
// line and the next one only, so the alias below it still fires.
#include <thread>  // fires: threading
#include <atomic>  // simcheck-allow: threading (this line and the next)
#include <cstdint>
using Counter = std::atomic<std::uint64_t>;  // fires: threading
#include <mutex>  // fires: threading

namespace fixbad {

void fan_out(Counter& hits) {
  std::mutex m;  // fires: threading
  std::thread worker([&hits] { hits += 1; });  // fires: threading
  worker.join();
}

}  // namespace fixbad
