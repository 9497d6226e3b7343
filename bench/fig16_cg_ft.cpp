// Paper Fig. 16: CG and FT class-B execution time on 8 nodes.
#include "bench_common.hpp"
#include "paper/ledger.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "IBA_s", "Myri_s", "QSN_s", "paper_IBA", "paper_Myri",
                 "paper_QSN"});
  const char* const apps[] = {"cg", "ft"};
  std::vector<Cell> cells;
  for (const char* app : apps) {
    for (auto net : kAllNets) cells.push_back({app, {.nodes = 8, .net = net}});
  }
  const auto res = run_cells(out, cells);
  for (std::size_t r = 0; r < 2; ++r) {
    auto& row = t.row().add(std::string(apps[r]));
    for (std::size_t n = 0; n < 3; ++n) row.add(res[r * 3 + n].seconds, 2);
    for (auto net : kAllNets) {
      row.add(paper::table2_seconds(apps[r], net, 8), 2);
    }
  }
  out.emit("Fig 16: CG and FT on 8 nodes (class B, seconds)", t);
  return 0;
}
