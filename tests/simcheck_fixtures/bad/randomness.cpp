// known-bad: unseeded randomness. Every draw must come from a seeded
// generator, or a rerun of the same configuration diverges. (<random>
// itself is banned only under fault/, so its include is silent here.)
#include <cstdlib>
#include <random>

namespace fixbad {

unsigned host_entropy() {
  std::random_device rd;  // fires: randomness
  return rd();
}

int libc_draw() {
  srand(42);  // fires: randomness
  return rand();  // fires: randomness
}

}  // namespace fixbad
