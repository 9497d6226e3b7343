// Paper Fig. 17: Sweep3D (inputs 50 and 150) on 8 nodes.
#include "bench_common.hpp"
#include "paper/ledger.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"input", "IBA_s", "Myri_s", "QSN_s", "paper_IBA",
                 "paper_Myri", "paper_QSN"});
  struct Row { const char* app; const char* label; };
  const Row rows[] = {Row{"s3d50", "50"}, Row{"s3d150", "150"}};
  std::vector<Cell> cells;
  for (const Row& r : rows) {
    for (auto net : kAllNets) cells.push_back({r.app, {.nodes = 8, .net = net}});
  }
  const auto res = run_cells(out, cells);
  for (std::size_t r = 0; r < 2; ++r) {
    auto& row = t.row().add(std::string(rows[r].label));
    for (std::size_t n = 0; n < 3; ++n) row.add(res[r * 3 + n].seconds, 2);
    for (auto net : kAllNets) {
      row.add(paper::table2_seconds(rows[r].app, net, 8), 2);
    }
  }
  out.emit("Fig 17: Sweep3D on 8 nodes (seconds) | known deviation: the "
           "paper's QSN penalty on input 50 does not reproduce",
           t);
  return 0;
}
