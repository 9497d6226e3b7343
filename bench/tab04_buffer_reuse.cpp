#include "bench_common.hpp"
#include "paper/ledger.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 4: application buffer reuse rates.
int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "reuse_pct", "wt_reuse_pct", "paper_reuse",
                 "paper_wt_reuse"});
  const auto rows = paper::table4();
  const auto res = run_profiled(out, rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& st = res[i].totals;
    const double pct = st.buffer_accesses
                           ? 100.0 * static_cast<double>(st.buffer_reuses) /
                                 static_cast<double>(st.buffer_accesses)
                           : 0.0;
    const double wt = st.buffer_bytes
                          ? 100.0 * static_cast<double>(st.buffer_reuse_bytes) /
                                static_cast<double>(st.buffer_bytes)
                          : 0.0;
    t.row()
        .add(std::string(r.app))
        .add(pct, 2)
        .add(wt, 2)
        .add(r.paper[0], 2)
        .add(r.paper[1], 2);
  }
  out.emit("Table 4: buffer reuse rate (all ranks; percentage of MPI "
           "buffer handles previously seen)",
           t);
  return 0;
}
