// Paper Figs. 18-23: speedups (base = 2 nodes) for IS, CG, MG, LU and
// Sweep3D 50/150 on all three interconnects.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "net", "speedup_4", "speedup_8", "ideal_4",
                 "ideal_8"});
  std::vector<Cell> cells;  // (app, net, nodes 2/4/8), nodes innermost
  for (const char* app : {"is", "cg", "mg", "lu", "s3d50", "s3d150"}) {
    for (auto net : kAllNets) {
      for (std::size_t nodes : {2, 4, 8}) {
        cells.push_back({app, {.nodes = nodes, .net = net}});
      }
    }
  }
  const auto res = run_cells(out, cells);
  for (std::size_t i = 0; i < cells.size(); i += 3) {
    const double t2 = res[i].seconds;
    t.row()
        .add(cells[i].app)
        .add(std::string(cluster::net_name(cells[i].cfg.net)))
        .add(t2 / res[i + 1].seconds * 2.0, 2)
        .add(t2 / res[i + 2].seconds * 2.0, 2)
        .add(4.0, 0)
        .add(8.0, 0);
  }
  out.emit("Figs 18-23: speedup over 2-node base (x2 = ideal at 4 nodes, "
           "x8 at 8)",
           t);
  return 0;
}
