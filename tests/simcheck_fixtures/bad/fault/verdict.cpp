// known-bad: allocation and <random> in the fault injector (fault-alloc
// fires only under a fault/ directory). Verdict paths run per packet and
// must stay allocation-free, and <random> distributions are not
// bit-portable across standard libraries. model-alloc does not apply
// here, so the std::function line is one finding, not two.
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <random>  // fires: fault-alloc

namespace fixbad {

struct Verdict {
  bool drop = false;
};

bool roll_verdict(std::uint64_t seed) {
  std::mt19937 gen(seed);  // fires: fault-alloc
  auto boxed = std::make_unique<Verdict>();  // fires: fault-alloc
  auto* raw = new Verdict;  // fires: fault-alloc
  void* scratch = malloc(64);  // fires: fault-alloc
  std::function<bool()> pick = [&gen] {  // fires: fault-alloc
    return gen() % 2 == 0;
  };
  raw->drop = pick() && boxed->drop;
  bool drop = raw->drop;
  delete raw;
  free(scratch);
  return drop;
}

}  // namespace fixbad
