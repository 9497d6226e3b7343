// Paper Table 2: class-B execution times at 2/4/8 nodes for all three
// interconnects (IS, CG, MG, LU, FT, Sweep3D; SP/BT excluded as in the
// paper since they need square rank counts).
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  struct Paper { const char* app; double v[9]; };
  // paper values: IBA{2,4,8}, Myri{2,4,8}, QSN{2,4,8}; -1 = not run.
  const Paper paper[] = {
      {"is", {6.73, 3.30, 1.78, 7.86, 4.99, 2.89, 7.04, 4.71, 2.47}},
      {"cg", {132.26, 81.64, 28.68, 135.76, 74.36, 29.65, 135.05, 73.10, 30.12}},
      {"mg", {23.60, 13.41, 5.81, 25.77, 14.87, 6.29, 24.07, 13.75, 6.04}},
      {"lu", {648.53, 319.57, 165.53, 708.43, 338.70, 170.70, 667.30, 314.55, 168.18}},
      {"ft", {-1, 75.50, 37.92, -1, 82.74, 41.40, -1, 81.89, 43.23}},
      {"s3d50", {13.58, 7.18, 3.59, 13.33, 6.96, 3.57, 14.94, 7.37, 4.38}},
      {"s3d150", {346.43, 179.35, 91.43, 339.22, 176.94, 89.66, 343.60, 177.66, 95.99}},
  };
  util::Table t({"app", "net", "n2_s", "n4_s", "n8_s", "paper_n2",
                 "paper_n4", "paper_n8"});
  // One sweep point per (app, net, nodes) cell; -1 cells never simulate.
  const std::size_t napps = std::size(paper);
  const auto secs = sweep_indexed(out, napps * 9, [&](std::size_t i) {
    const auto& row = paper[i / 9];
    const std::size_t col = (i % 9) / 3;
    const std::size_t k = i % 3;
    if (row.v[col * 3 + k] < 0) return -1.0;  // FT does not fit on 2 nodes
    return run_app(row.app, kAllNets[col], std::size_t{2} << k, 1,
                   cluster::Bus::kDefault, {}, out.partitions);
  });
  for (std::size_t a = 0; a < napps; ++a) {
    const auto& row = paper[a];
    for (std::size_t col = 0; col < 3; ++col) {
      const std::size_t base = a * 9 + col * 3;
      t.row()
          .add(std::string(row.app))
          .add(std::string(cluster::net_name(kAllNets[col])))
          .add(secs[base + 0], 2)
          .add(secs[base + 1], 2)
          .add(secs[base + 2], 2)
          .add(row.v[col * 3 + 0], 2)
          .add(row.v[col * 3 + 1], 2)
          .add(row.v[col * 3 + 2], 2);
    }
  }
  out.emit("Table 2: class-B execution time vs system size (seconds; "
           "-1 = not run, FT does not fit on 2 nodes)",
           t);
  return 0;
}
