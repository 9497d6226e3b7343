// Paper Fig. 25: SMP mode — 16 processes on 8 nodes, block mapping.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "IBA_s", "Myri_s", "QSN_s"});
  std::vector<Cell> cells;  // (app, net), net innermost
  for (const char* app : {"is", "cg", "mg", "lu", "ft", "s3d50", "s3d150"}) {
    for (auto net : kAllNets) {
      cells.push_back({app, {.nodes = 8, .ppn = 2, .net = net}});
    }
  }
  const auto res = run_cells(out, cells);
  for (std::size_t i = 0; i < cells.size(); i += 3) {
    t.row()
        .add(cells[i].app)
        .add(res[i].seconds, 2)
        .add(res[i + 1].seconds, 2)
        .add(res[i + 2].seconds, 2);
  }
  out.emit("Fig 25: 16 processes on 8 nodes, block mapping (class B, "
           "seconds) | paper: IBA best except MG and Sweep3D-150; QSN hurt "
           "by its intra-node path",
           t);
  return 0;
}
