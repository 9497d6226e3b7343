// Extension (paper Section 3.8, after Wu et al.): on-demand RC connection
// management. Compares InfiniBand MPI memory footprints: static
// all-to-all connections vs connections created on first use, under an
// all-to-all application (FT) and a nearest-neighbour one (LU).
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"nodes", "static_MB", "ondemand_ft_MB", "ondemand_lu_MB"});
  struct Col { const char* app; bool on_demand; };
  const Col cols[] = {{"ft", false}, {"ft", true}, {"lu", true}};
  std::vector<Cell> cells;  // per node count: the three columns
  for (std::size_t nodes : {4, 8, 16}) {
    for (const Col& col : cols) {
      cells.push_back(
          {col.app,
           {.nodes = nodes,
            .net = cluster::Net::kInfiniBand,
            .variant = {.on_demand_connections = col.on_demand}}});
    }
  }
  const auto res = run_cells(out, cells);
  const auto mb = [&](std::size_t i) {
    return static_cast<double>(res[i].node0_mpi_bytes) / (1 << 20);
  };
  for (std::size_t i = 0; i < cells.size(); i += 3) {
    t.row()
        .add(static_cast<std::uint64_t>(cells[i].cfg.nodes))
        .add(mb(i), 1)
        .add(mb(i + 1), 1)
        .add(mb(i + 2), 1);
  }
  out.emit("Extension: InfiniBand MPI memory footprint, static vs "
           "on-demand RC connections (Fig. 13's growth disappears for "
           "nearest-neighbour apps)",
           t);
  return 0;
}
