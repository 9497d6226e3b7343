// Paper Fig. 15: SP and BT on 4 nodes, LU on 8 nodes (class B seconds).
// The paper gives no numeric values for SP/BT (bars only); the takeaway
// it draws is that Quadrics closes the gap on SP/BT thanks to its
// computation/communication overlap of the large non-blocking exchanges.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "nodes", "IBA_s", "Myri_s", "QSN_s"});
  struct Row { const char* app; std::size_t nodes; };
  const Row rows[] = {Row{"sp", 4}, Row{"bt", 4}, Row{"lu", 8}};
  std::vector<Cell> cells;
  for (const Row& r : rows) {
    for (auto net : kAllNets) {
      cells.push_back({r.app, {.nodes = r.nodes, .net = net}});
    }
  }
  const auto res = run_cells(out, cells);
  for (std::size_t r = 0; r < 3; ++r) {
    t.row()
        .add(std::string(rows[r].app))
        .add(static_cast<std::uint64_t>(rows[r].nodes))
        .add(res[r * 3 + 0].seconds, 2)
        .add(res[r * 3 + 1].seconds, 2)
        .add(res[r * 3 + 2].seconds, 2);
  }
  out.emit("Fig 15: SP/BT on 4 nodes, LU on 8 nodes (class B, seconds) | "
           "paper LU: IBA 165.5, Myri 170.7, QSN 168.2",
           t);
  return 0;
}
