// Extension: scalability projection beyond the paper's 16 nodes.
//
// The paper's conclusion raises (but cannot test) how these fabrics
// behave past a single switch. We project InfiniBand class-B application
// times to 32/64 nodes behind a two-level fat tree (leaf radix 8), next
// to the idealized single-crossbar numbers — showing which applications
// feel the uplink oversubscription (alltoall-heavy IS/FT) and which do
// not (nearest-neighbour LU).
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  bool big = false;
  const Output out = parse_output(argc, argv,
                                  [&](const util::Flags& flags, Output&) {
                                    big = flags.get_bool("big", false);
                                  });
  util::Table t({"app", "nodes", "crossbar_s", "fattree8_s", "penalty_pct"});
  const std::vector<std::size_t> node_counts =
      big ? std::vector<std::size_t>{32, 64} : std::vector<std::size_t>{32};
  // 32 nodes keeps the sweep fast; pass --big for 64-node projections.
  std::vector<Cell> cells;  // per (app, nodes): crossbar, then fat tree
  for (const char* app : {"is", "ft", "mg", "lu"}) {
    for (std::size_t nodes : node_counts) {
      for (std::size_t radix : {0, 8}) {
        Cell cell{app, {.nodes = nodes, .net = cluster::Net::kInfiniBand}};
        cell.cfg.tweak_ib = [radix](ib::IbConfig& c) {
          c.switch_cfg.fat_tree_radix = radix;
        };
        cells.push_back(std::move(cell));
      }
    }
  }
  const auto res = run_cells(out, cells);
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    const double flat = res[i].seconds;
    const double tree = res[i + 1].seconds;
    t.row()
        .add(cells[i].app)
        .add(static_cast<std::uint64_t>(cells[i].cfg.nodes))
        .add(flat, 2)
        .add(tree, 2)
        .add((tree - flat) / flat * 100.0, 1);
  }
  out.emit("Extension: class-B InfiniBand beyond one switch — ideal "
           "crossbar vs 2-level fat tree (leaf radix 8)",
           t);
  return 0;
}
