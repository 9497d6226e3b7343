// Paper Fig. 14: IS and MG class-B execution time on 8 nodes.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "IBA_s", "Myri_s", "QSN_s", "paper_IBA", "paper_Myri",
                 "paper_QSN"});
  struct Row { const char* label; const char* app; double ib, my, qs; };
  const Row rows[] = {Row{"IS", "is", 1.78, 2.89, 2.47},
                      Row{"MG", "mg", 5.81, 6.29, 6.04}};
  std::vector<Cell> cells;
  for (const Row& r : rows) {
    for (auto net : kAllNets) cells.push_back({r.app, {.nodes = 8, .net = net}});
  }
  const auto res = run_cells(out, cells);
  for (std::size_t r = 0; r < 2; ++r) {
    t.row()
        .add(std::string(rows[r].label))
        .add(res[r * 3 + 0].seconds, 2)
        .add(res[r * 3 + 1].seconds, 2)
        .add(res[r * 3 + 2].seconds, 2)
        .add(rows[r].ib, 2)
        .add(rows[r].my, 2)
        .add(rows[r].qs, 2);
  }
  out.emit("Fig 14: IS and MG on 8 nodes (class B, seconds)", t);
  return 0;
}
