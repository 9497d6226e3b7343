// Paper Fig. 24: InfiniBand scalability on the 16-node Topspin cluster.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "n2_s", "n4_s", "n8_s", "n16_s", "speedup_16v2"});
  std::vector<Cell> cells;
  const auto add = [&](const char* app, std::size_t nodes) {
    cells.push_back({app, {.nodes = nodes, .net = cluster::Net::kInfiniBand}});
  };
  for (const char* app : {"is", "cg", "mg", "lu", "ft", "s3d50", "s3d150"}) {
    for (std::size_t nodes : {2, 4, 8, 16}) add(app, nodes);
  }
  const std::size_t n_scaled = cells.size();
  // SP/BT at square counts only: 4 and 16.
  for (const char* app : {"sp", "bt"}) {
    for (std::size_t nodes : {4, 16}) add(app, nodes);
  }
  const auto res = run_cells(out, cells);
  for (std::size_t i = 0; i < n_scaled; i += 4) {
    const double t2 = res[i].seconds;
    const double t16 = res[i + 3].seconds;
    t.row()
        .add(cells[i].app)
        .add(t2, 2)
        .add(res[i + 1].seconds, 2)
        .add(res[i + 2].seconds, 2)
        .add(t16, 2)
        .add(t2 / t16 * 2.0, 2);
  }
  for (std::size_t i = n_scaled; i < cells.size(); i += 2) {
    t.row()
        .add(cells[i].app)
        .add(std::string("-"))
        .add(res[i].seconds, 2)
        .add(std::string("-"))
        .add(res[i + 1].seconds, 2)
        .add(std::string("-"));
  }
  out.emit("Fig 24: InfiniBand scalability, 16-node Topspin-style cluster "
           "(class B, seconds)",
           t);
  return 0;
}
