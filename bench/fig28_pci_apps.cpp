// Paper Fig. 28: NAS class B over InfiniBand, PCI vs PCI-X, plus the
// cross-network comparison the paper draws: with just PCI, InfiniBand
// still beats Myrinet/Quadrics on bandwidth-bound applications.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "nodes", "PCIX_s", "PCI_s", "degrade_pct", "Myri_s",
                 "QSN_s"});
  struct Row { const char* app; std::size_t nodes; };
  using cluster::Bus;
  using cluster::Net;
  std::vector<Cell> cells;  // per row: IBA PCI-X, IBA PCI, Myri, QSN
  for (Row r : {Row{"is", 8}, Row{"cg", 8}, Row{"mg", 8}, Row{"lu", 8},
                Row{"ft", 8}, Row{"sp", 4}, Row{"bt", 4}}) {
    cells.push_back({r.app, {.nodes = r.nodes, .net = Net::kInfiniBand,
                             .bus = Bus::kPcix133}});
    cells.push_back({r.app, {.nodes = r.nodes, .net = Net::kInfiniBand,
                             .bus = Bus::kPci66}});
    cells.push_back({r.app, {.nodes = r.nodes, .net = Net::kMyrinet}});
    cells.push_back({r.app, {.nodes = r.nodes, .net = Net::kQuadrics}});
  }
  const auto res = run_cells(out, cells);
  for (std::size_t i = 0; i < cells.size(); i += 4) {
    const double x = res[i].seconds;
    const double p = res[i + 1].seconds;
    t.row()
        .add(cells[i].app)
        .add(static_cast<std::uint64_t>(cells[i].cfg.nodes))
        .add(x, 2)
        .add(p, 2)
        .add((p - x) / x * 100.0, 1)
        .add(res[i + 2].seconds, 2)
        .add(res[i + 3].seconds, 2);
  }
  out.emit("Fig 28: IBA class B, PCI vs PCI-X (seconds) | paper: average "
           "degradation <5%; IS/FT/CG on PCI still match or beat "
           "Myri/QSN",
           t);
  return 0;
}
