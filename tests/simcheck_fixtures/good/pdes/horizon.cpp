// known-good: atomics are legal under a pdes/ directory, where the
// conservative executor synchronizes partitioned engines.
#include <atomic>
#include <cstdint>

namespace fixgood {

struct Horizon {
  std::atomic<std::uint64_t> lbts{0};

  void publish(std::uint64_t t) { lbts.store(t); }
};

}  // namespace fixgood
