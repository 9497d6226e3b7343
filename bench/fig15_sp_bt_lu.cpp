// Paper Fig. 15: SP and BT on 4 nodes, LU on 8 nodes (class B seconds).
// The paper gives no numeric values for SP/BT (bars only); the takeaway
// it draws is that Quadrics closes the gap on SP/BT thanks to its
// computation/communication overlap of the large non-blocking exchanges.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "nodes", "IBA_s", "Myri_s", "QSN_s"});
  struct Row { const char* app; std::size_t nodes; };
  const Row rows[] = {Row{"sp", 4}, Row{"bt", 4}, Row{"lu", 8}};
  const auto secs = sweep_indexed(out, 9, [&](std::size_t i) {
    return run_app(rows[i / 3].app, kAllNets[i % 3], rows[i / 3].nodes, 1,
                   cluster::Bus::kDefault, out.faults, out.partitions);
  });
  for (std::size_t r = 0; r < 3; ++r) {
    t.row()
        .add(std::string(rows[r].app))
        .add(static_cast<std::uint64_t>(rows[r].nodes))
        .add(secs[r * 3 + 0], 2)
        .add(secs[r * 3 + 1], 2)
        .add(secs[r * 3 + 2], 2);
  }
  out.emit("Fig 15: SP/BT on 4 nodes, LU on 8 nodes (class B, seconds) | "
           "paper LU: IBA 165.5, Myri 170.7, QSN 168.2",
           t);
  return 0;
}
