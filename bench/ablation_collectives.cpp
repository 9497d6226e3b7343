// Ablation: Quadrics hardware broadcast. Disabling it pushes
// barrier/bcast/allreduce onto pure point-to-point trees — quantifying
// how much of Fig. 12's QSN advantage comes from the Elite hardware.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

namespace {
double allreduce_us(bool hw) {
  return microbench::allreduce_latency(cluster::Net::kQuadrics, {4},
                                       {.variant = {.elan_hw_bcast = hw}})[0]
      .value;
}
}  // namespace

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"config", "allreduce_4B_us"});
  t.row().add(std::string("hardware broadcast")).add(allreduce_us(true), 1);
  t.row().add(std::string("p2p tree only")).add(allreduce_us(false), 1);
  out.emit("Ablation: Quadrics 8-node allreduce with and without the "
           "Elite hardware broadcast",
           t);
  return 0;
}
