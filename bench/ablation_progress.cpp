// Ablation: host-driven vs NIC-autonomous rendezvous progress.
//
// The paper attributes Quadrics' overlap advantage to NIC-resident
// protocol handling. Here we graft that property onto the InfiniBand
// device (as if MVAPICH had a progress thread / NIC offload) and measure
// Fig. 6's overlap potential with everything else unchanged.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  const std::vector<std::uint64_t> sizes{4096, 16384, 65536};
  const auto overlap = [&](bool nic_progress) {
    return microbench::overlap_potential(
        cluster::Net::kInfiniBand, sizes,
        {.variant = {.nic_progress = nic_progress}});
  };
  const auto host = overlap(false);
  const auto nic = overlap(true);
  util::Table t({"size", "host_driven_us", "nic_progress_us"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    t.row()
        .add(util::size_label(sizes[i]))
        .add(host[i].value, 1)
        .add(nic[i].value, 1);
  }
  out.emit("Ablation: overlap potential, InfiniBand host-driven rendezvous "
           "vs hypothetical NIC-side progress (the Quadrics property)",
           t);
  return 0;
}
