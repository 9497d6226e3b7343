// known-good: the allocation rules are gated by directory. fault-alloc
// applies only under fault/ and model-alloc only under model/, so the
// same constructs are legal here.
#include <cstdlib>
#include <functional>
#include <memory>
#include <random>

namespace fixgood {

struct Route {
  int hops = 0;
};

int plan_route(unsigned seed) {
  std::mt19937 gen(seed);
  std::function<int()> draw = [&gen] { return static_cast<int>(gen() % 4); };
  auto shared = std::make_shared<Route>();
  auto owned = std::make_unique<Route>();
  auto* raw = new Route;
  void* scratch = malloc(16);
  raw->hops = draw() + shared->hops + owned->hops;
  int hops = raw->hops;
  delete raw;
  free(scratch);
  return hops;
}

}  // namespace fixgood
