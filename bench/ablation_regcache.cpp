// Ablation: the pin-down cache. With registration made free, the
// buffer-reuse sensitivity of InfiniBand (paper Fig. 7) disappears.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"reuse_pct", "lat_us_normal", "lat_us_free_reg"});
  for (int reuse : {0, 50, 100}) {
    const auto lat_us = [reuse](bool free_registration) {
      return microbench::buffer_reuse_latency(
          cluster::Net::kInfiniBand, {8192}, reuse,
          {.variant = {.free_registration = free_registration}})[0]
          .value;
    };
    t.row().add(reuse).add(lat_us(false), 1).add(lat_us(true), 1);
  }
  out.emit("Ablation: InfiniBand 8K latency vs buffer reuse, with real "
           "vs free registration (pin-down cache relevance)",
           t);
  return 0;
}
