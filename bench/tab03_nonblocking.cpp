#include "bench_common.hpp"
#include "paper/ledger.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 3: non-blocking MPI usage per application.
int main(int argc, char** argv) {
  const Output out = parse_cell_output(argc, argv);
  util::Table t({"app", "isend", "isend_avg", "irecv", "irecv_avg",
                 "paper_isend", "paper_isend_avg", "paper_irecv",
                 "paper_irecv_avg"});
  const auto rows = paper::table3();
  const auto res = run_profiled(out, rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& st = res[i].busiest;
    const auto avg = [](std::uint64_t bytes, std::uint64_t n) {
      return n ? bytes / n : 0;
    };
    auto& row = t.row()
                    .add(std::string(r.app))
                    .add(st.isend_calls)
                    .add(avg(st.isend_bytes, st.isend_calls))
                    .add(st.irecv_calls)
                    .add(avg(st.irecv_bytes, st.irecv_calls));
    for (double p : r.paper) row.add(static_cast<std::uint64_t>(p));
  }
  out.emit("Table 3: non-blocking MPI calls (busiest rank; sizes in bytes)",
           t);
  return 0;
}
