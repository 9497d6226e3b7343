// Sweep3D — the ASCI discrete-ordinates transport kernel.
//
// Eight-octant wavefront sweeps over a 2D (x,y) process decomposition:
// for each octant and k-block, a rank receives inflow fluxes from its
// upstream x and y neighbours, sweeps its block, and forwards outflow to
// the downstream neighbours — thousands of small pipelined messages, no
// collectives to speak of (Tables 1 and 5), and no non-blocking calls
// (Table 3). Input 50 keeps every message under 2 KB; input 150 sends
// about twice as many 2K-16K messages as sub-2K ones, where the paper's
// split is even (EXPERIMENTS, known deviation "Table 1 LU/Sweep3D counts").
//
// Real mode runs source iterations of a one-group upwind transport sweep
// and verifies the scalar-flux change shrinks between iterations.
#pragma once

#include "apps/app.hpp"

namespace mns::apps {

struct SweepParams {
  int n;            // cube dimension (the paper's "input 50" / "input 150")
  int iterations;   // source iterations
  int k_block;      // pipeline granularity in z (sweep3d "mk")
  int angle_blocks; // angle pipeline blocks per octant (6 angles / "mmi")
  int angles_per_block;  // "mmi": angles carried per message
  double sec_per_cell;   // compute model: per cell-angle-block

  static SweepParams test_size() {
    return SweepParams{16, 3, 4, 2, 3, 1.09e-6};
  }
  // mk=1/mmi=3: every message under 2 KB, 14,437 on the busiest rank
  // (artifacts/tab01_msgsize.txt) against the paper's 19,236.
  static SweepParams input_50() {
    return SweepParams{50, 12, 1, 2, 3, 1.09e-6};
  }
  // mk=2/mmi=3: x-strips land in 2K-16K, y-strips under 2K — 14,400 and
  // 7,237 on the busiest rank, against the paper's even 28,800/28,836.
  static SweepParams input_150() {
    return SweepParams{150, 12, 2, 2, 3, 1.09e-6};
  }
};

sim::Task<AppResult> run_sweep3d(mpi::Comm& comm, SweepParams p, Mode mode);

}  // namespace mns::apps
