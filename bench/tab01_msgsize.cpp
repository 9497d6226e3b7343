#include "bench_common.hpp"
#include "paper/ledger.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 1: message size distribution per application (busiest rank,
// class B on 8 nodes; SP/BT on 4).
int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "<2K", "2K-16K", "16K-1M", ">1M", "paper_<2K",
                 "paper_2K-16K", "paper_16K-1M", "paper_>1M"});
  const auto rows = paper::table1();
  const auto res = run_profiled(out, rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& st = res[i].busiest;
    auto& row = t.row()
                    .add(std::string(r.app))
                    .add(st.sent.count_in(0, 2 << 10))
                    .add(st.sent.count_in(2 << 10, 16 << 10))
                    .add(st.sent.count_in(16 << 10, 1 << 20))
                    .add(st.sent.count_in(1 << 20, UINT64_MAX));
    for (double p : r.paper) row.add(static_cast<std::uint64_t>(p));
  }
  out.emit("Table 1: message size distribution (busiest rank; counts "
           "include collective calls, as in the paper's MPICH logging)",
           t);
  return 0;
}
