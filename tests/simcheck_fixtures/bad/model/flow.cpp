// known-bad: type-erased and shared allocation in the machine model
// (model-alloc fires only under a model/ directory). The message data
// path is pooled state machines driven by raw continuations.
#include <functional>
#include <memory>

namespace fixbad {

struct Hop {
  int port = 0;
};

void forward_hop(int port) {
  std::function<void(int)> on_done = [](int) {};  // fires: model-alloc
  auto hop = std::make_shared<Hop>();  // fires: model-alloc
  hop->port = port;
  on_done(hop->port);
}

}  // namespace fixbad
