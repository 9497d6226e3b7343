// Extension (paper Section 3.7, after Kini et al.): InfiniBand collective
// fast paths over hardware multicast, vs the stock point-to-point
// algorithms. The paper stated "we are currently working along this
// direction"; this bench quantifies what that work buys.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

namespace {

double collective_us(const std::string& op, std::size_t nodes, bool mc) {
  const microbench::Options opt{.nodes = nodes,
                                .variant = {.hw_multicast = mc}};
  const cluster::Net ib = cluster::Net::kInfiniBand;
  if (op == "bcast") return microbench::bcast_latency(ib, {64}, opt)[0].value;
  if (op == "allreduce") {
    return microbench::allreduce_latency(ib, {4}, opt)[0].value;
  }
  return microbench::barrier_latency(ib, opt);
}

}  // namespace

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"op", "nodes", "p2p_us", "multicast_us", "speedup"});
  for (const char* op : {"bcast", "allreduce", "barrier"}) {
    for (std::size_t nodes : {8, 16}) {
      const double p2p = collective_us(op, nodes, false);
      const double mc = collective_us(op, nodes, true);
      t.row()
          .add(std::string(op))
          .add(static_cast<std::uint64_t>(nodes))
          .add(p2p, 1)
          .add(mc, 1)
          .add(p2p / mc, 2);
    }
  }
  out.emit("Extension: InfiniBand collectives, point-to-point trees vs "
           "hardware multicast (bcast/allreduce gain; barrier is gather-"
           "bound without RDMA-flag fan-in)",
           t);
  return 0;
}
