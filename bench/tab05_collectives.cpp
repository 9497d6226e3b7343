#include "bench_common.hpp"
#include "paper/ledger.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 5: collective usage per application.
int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "coll_calls", "pct_calls", "pct_volume",
                 "paper_calls", "paper_pct_calls", "paper_pct_vol"});
  const auto rows = paper::table5();
  const auto res = run_profiled(out, rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& st = res[i].busiest;
    const double pct_calls =
        st.mpi_calls ? 100.0 * static_cast<double>(st.collective_calls) /
                           static_cast<double>(st.mpi_calls)
                     : 0.0;
    const double pct_vol =
        st.total_bytes ? 100.0 * static_cast<double>(st.collective_bytes) /
                             static_cast<double>(st.total_bytes)
                       : 0.0;
    t.row()
        .add(std::string(r.app))
        .add(st.collective_calls)
        .add(pct_calls, 2)
        .add(pct_vol, 2)
        .add(r.paper[0], 0)
        .add(r.paper[1], 2)
        .add(r.paper[2], 2);
  }
  out.emit("Table 5: MPI collective usage (busiest rank)", t);
  return 0;
}
