// Paper Table 2: class-B execution times at 2/4/8 nodes for all three
// interconnects (IS, CG, MG, LU, FT, Sweep3D; SP/BT excluded as in the
// paper since they need square rank counts).
#include "bench_common.hpp"
#include "paper/ledger.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "net", "n2_s", "n4_s", "n8_s", "paper_n2",
                 "paper_n4", "paper_n8"});
  // One cell per (app, net, nodes) with a paper value; cells the paper
  // did not run never simulate (FT does not fit on 2 nodes).
  std::vector<Cell> cells;
  for (const auto& row : paper::table2()) {
    for (std::size_t col = 0; col < 3; ++col) {
      for (std::size_t k = 0; k < 3; ++k) {
        if (row.seconds[col][k] == paper::kNotRun) continue;
        cells.push_back(
            {row.app, {.nodes = std::size_t{2} << k, .net = kAllNets[col]}});
      }
    }
  }
  const auto res = run_cells(out, cells);
  std::size_t next = 0;
  for (const auto& row : paper::table2()) {
    for (std::size_t col = 0; col < 3; ++col) {
      const auto& paper_s = row.seconds[col];
      auto& tr = t.row()
                     .add(std::string(row.app))
                     .add(std::string(cluster::net_name(kAllNets[col])));
      for (double p : paper_s) {
        tr.add(p == paper::kNotRun ? -1.0 : res[next++].seconds, 2);
      }
      for (double p : paper_s) tr.add(p, 2);
    }
  }
  out.emit("Table 2: class-B execution time vs system size (seconds; "
           "-1 = not run, FT does not fit on 2 nodes)",
           t);
  return 0;
}
