#include "bench_common.hpp"
#include "paper/ledger.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 6: intra-node point-to-point share with block mapping,
// 16 processes on 8 nodes (a square rank count, so SP/BT run too).
int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "intra_calls", "pct_calls", "pct_volume",
                 "paper_pct_calls", "paper_pct_vol"});
  const auto rows = paper::table6();
  const auto res = run_profiled(out, rows, /*ppn=*/2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& st = res[i].totals;
    const double pct_calls =
        st.ptp_calls ? 100.0 * static_cast<double>(st.intra_calls) /
                           static_cast<double>(st.ptp_calls)
                     : 0.0;
    const double pct_vol =
        st.ptp_bytes ? 100.0 * static_cast<double>(st.intra_bytes) /
                           static_cast<double>(st.ptp_bytes)
                     : 0.0;
    t.row()
        .add(std::string(r.app))
        .add(st.intra_calls)
        .add(pct_calls, 2)
        .add(pct_vol, 2)
        .add(r.paper[0], 2)
        .add(r.paper[1], 2);
  }
  out.emit("Table 6: intra-node point-to-point share, block mapping, 2 "
           "processes per node (all ranks)",
           t);
  return 0;
}
