// Calibration regression suite. Each headline micro-benchmark row of the
// paper ledger (src/paper/ledger.cpp) is one CalibrationRow case that
// asserts ours lies inside the row's band: a percentage or open band
// strictly, an absolute band inclusively (EXPECT_NEAR). The rows of kind
// deviation are the documented misses of EXPERIMENTS.md's "Known
// deviations", held by their bands. The TEST cases below assert the
// qualitative *shapes* — who wins, where the crossovers and cliffs fall.
// Any model change that breaks a published behaviour fails here.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "microbench/microbench.hpp"
#include "paper/ledger.hpp"

namespace mns::paper {
// gtest prints a row by its id.
void PrintTo(const MicroRow& row, std::ostream* os) { *os << row.id; }
}  // namespace mns::paper

namespace {

using namespace mns;
using cluster::Net;
using microbench::Options;
using microbench::Point;

double at(const std::vector<Point>& pts, std::uint64_t size) {
  for (const auto& p : pts) {
    if (p.size == size) return p.value;
  }
  ADD_FAILURE() << "no point for size " << size;
  return -1;
}

// --- The ledger's rows ------------------------------------------------------

class CalibrationRow : public testing::TestWithParam<paper::MicroRow> {};

TEST_P(CalibrationRow, OursInsideBand) {
  const paper::MicroRow& row = GetParam();
  const double ours = row.measure(row.net, row.x);
  if (row.band.form == paper::Band::Form::kAbs) {
    EXPECT_NEAR(ours, row.paper, row.band.a);
  } else {
    EXPECT_GT(ours, row.band.lo(row.paper)) << "paper=" << row.paper;
    EXPECT_LT(ours, row.band.hi(row.paper)) << "paper=" << row.paper;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ledger, CalibrationRow, testing::ValuesIn(paper::micro()),
    [](const testing::TestParamInfo<paper::MicroRow>& info) {
      return std::string(info.param.id);
    });

// --- Fig. 1: latency -------------------------------------------------------

TEST(Calibration, LargeMessageLatencyIBWins) {
  // "For large messages, InfiniBand has a clear advantage because of its
  // higher bandwidth."
  const std::vector<std::uint64_t> sz{16 << 10};
  const double ib = at(microbench::latency(Net::kInfiniBand, sz), 16 << 10);
  const double my = at(microbench::latency(Net::kMyrinet, sz), 16 << 10);
  const double qs = at(microbench::latency(Net::kQuadrics, sz), 16 << 10);
  EXPECT_LT(ib, my);
  EXPECT_LT(ib, qs);
}

// --- Fig. 2: bandwidth -----------------------------------------------------

TEST(Calibration, IbBandwidthDipsAtRendezvousSwitch) {
  // "The bandwidth drop for 2KB messages is because the protocol switches
  // from Eager to Rendezvous."
  const auto bw =
      microbench::bandwidth(Net::kInfiniBand, {1024, 2048, 4096});
  EXPECT_LT(at(bw, 2048), at(bw, 1024));
  EXPECT_GT(at(bw, 4096), at(bw, 2048));
}

TEST(Calibration, WindowSizeRaisesBandwidth) {
  Options w4;
  w4.window = 4;
  Options w16;
  w16.window = 16;
  for (Net net : {Net::kInfiniBand, Net::kMyrinet}) {
    const double b4 = at(microbench::bandwidth(net, {4096}, w4), 4096);
    const double b16 = at(microbench::bandwidth(net, {4096}, w16), 4096);
    EXPECT_GT(b16, b4 * 1.05) << "window should help medium messages";
  }
}

TEST(Calibration, QuadricsLargeWindowDroops) {
  // Fig. 2: QSN throughput falls once the window exceeds the Elan DMA
  // queue depth (16).
  Options w16;
  w16.window = 16;
  Options w32;
  w32.window = 32;
  const double b16 = at(microbench::bandwidth(Net::kQuadrics, {4096}, w16), 4096);
  const double b32 = at(microbench::bandwidth(Net::kQuadrics, {4096}, w32), 4096);
  EXPECT_LT(b32, b16);
}

// --- Fig. 3: host overhead ---------------------------------------------------

TEST(Calibration, OverheadOrderIndependentOfLatencyOrder) {
  // Quadrics has the best latency but the WORST host overhead.
  const double ib = at(microbench::host_overhead(Net::kInfiniBand, {4}), 4);
  const double my = at(microbench::host_overhead(Net::kMyrinet, {4}), 4);
  const double qs = at(microbench::host_overhead(Net::kQuadrics, {4}), 4);
  EXPECT_LT(my, ib);
  EXPECT_LT(ib, qs);
}

// --- Figs. 4/5: bi-directional ----------------------------------------------

TEST(Calibration, BidirPenaltyShape) {
  // InfiniBand barely degrades bi-directionally; Myrinet degrades most.
  auto penalty = [](Net net) {
    return at(microbench::bidir_latency(net, {4}), 4) -
           at(microbench::latency(net, {4}), 4);
  };
  const double ib = penalty(Net::kInfiniBand);
  const double my = penalty(Net::kMyrinet);
  const double qs = penalty(Net::kQuadrics);
  EXPECT_LT(ib, 0.7);
  EXPECT_GT(my, 1.0);
  EXPECT_GT(my, qs);
}

// --- Fig. 6: overlap ---------------------------------------------------------

TEST(Calibration, OverlapShapes) {
  const std::vector<std::uint64_t> sizes{1024, 64 << 10};
  const auto ib = microbench::overlap_potential(Net::kInfiniBand, sizes);
  const auto qs = microbench::overlap_potential(Net::kQuadrics, sizes);
  // Quadrics (NIC-resident protocol) overlaps large transfers almost
  // fully; IB/GM plateau once rendezvous needs the host.
  EXPECT_GT(at(qs, 64 << 10), 150.0);
  EXPECT_LT(at(ib, 64 << 10), 60.0);
  // For small (eager) messages IB has decent overlap.
  EXPECT_GT(at(ib, 1024), 2.0);
}

// --- Figs. 7/8: buffer reuse -------------------------------------------------

TEST(Calibration, BufferReuseSensitivity) {
  // 0% reuse must be distinctly slower than 100% for all three, each for
  // its own reason (IB/GM registration, QSN MMU sync).
  {
    const double hot = at(
        microbench::buffer_reuse_latency(Net::kInfiniBand, {4096}, 100), 4096);
    const double cold = at(
        microbench::buffer_reuse_latency(Net::kInfiniBand, {4096}, 0), 4096);
    EXPECT_GT(cold, hot * 1.5);  // VAPI registration dwarfs the 4K latency
  }
  {
    const std::uint64_t sz = 64 << 10;
    const double hot =
        at(microbench::buffer_reuse_latency(Net::kMyrinet, {sz}, 100), sz);
    const double cold =
        at(microbench::buffer_reuse_latency(Net::kMyrinet, {sz}, 0), sz);
    EXPECT_GT(cold, hot + 50.0);  // both-side GM registration
  }
  {
    const double hot = at(
        microbench::buffer_reuse_latency(Net::kQuadrics, {4096}, 100), 4096);
    const double cold = at(
        microbench::buffer_reuse_latency(Net::kQuadrics, {4096}, 0), 4096);
    EXPECT_GT(cold, hot + 5.0);  // MMU sync on both NICs
  }
}

TEST(Calibration, MyrinetInsensitiveBelow16K) {
  // Fig. 7: "Myrinet latency ... not significantly affected until the
  // message size reaches more than 16KB" (eager copies use pre-registered
  // buffers).
  const double hot =
      at(microbench::buffer_reuse_latency(Net::kMyrinet, {4096}, 100), 4096);
  const double cold =
      at(microbench::buffer_reuse_latency(Net::kMyrinet, {4096}, 0), 4096);
  EXPECT_LT(cold, hot * 1.15);
}

TEST(Calibration, QuadricsSensitiveAtAllSizes) {
  // Fig. 7: "a steep rise in latency for Quadrics with lack of buffer
  // reuse for all messages" — the NIC MMU sync has no size floor.
  const double hot =
      at(microbench::buffer_reuse_latency(Net::kQuadrics, {64}, 100), 64);
  const double cold =
      at(microbench::buffer_reuse_latency(Net::kQuadrics, {64}, 0), 64);
  EXPECT_GT(cold, hot + 2.0);  // several us of MMU stall
}

TEST(Calibration, ReuseBandwidthMonotone) {
  for (Net net : {Net::kInfiniBand, Net::kQuadrics}) {
    const std::uint64_t size = 64 << 10;
    const double b0 =
        at(microbench::buffer_reuse_bandwidth(net, {size}, 0), size);
    const double b50 =
        at(microbench::buffer_reuse_bandwidth(net, {size}, 50), size);
    const double b100 =
        at(microbench::buffer_reuse_bandwidth(net, {size}, 100), size);
    EXPECT_LT(b0, b50) << net_name(net);
    EXPECT_LT(b50, b100) << net_name(net);
  }
}

// --- Figs. 9/10: intra-node --------------------------------------------------

TEST(Calibration, IntranodeBandwidthShapes) {
  // IB switches to NIC loopback >= 16 KB: >450 MB/s at 1 MB; Myrinet's
  // all-shm path thrashes the cache and drops below it.
  const double ib = at(
      microbench::intranode_bandwidth(Net::kInfiniBand, {1 << 20}), 1 << 20);
  const double my = at(
      microbench::intranode_bandwidth(Net::kMyrinet, {1 << 20}), 1 << 20);
  EXPECT_LT(my, ib);
}

// --- Figs. 11/12: collectives ------------------------------------------------

TEST(Calibration, CollectiveOrderings) {
  // Fig. 11: IB < Myri < QSN for alltoall; Fig. 12: QSN < Myri < IB for
  // allreduce.
  const double a_ib = at(microbench::alltoall_latency(Net::kInfiniBand, {4}), 4);
  const double a_my = at(microbench::alltoall_latency(Net::kMyrinet, {4}), 4);
  const double a_qs = at(microbench::alltoall_latency(Net::kQuadrics, {4}), 4);
  EXPECT_LT(a_ib, a_my);
  EXPECT_LT(a_my, a_qs);
  const double r_ib = at(microbench::allreduce_latency(Net::kInfiniBand, {4}), 4);
  const double r_my = at(microbench::allreduce_latency(Net::kMyrinet, {4}), 4);
  const double r_qs = at(microbench::allreduce_latency(Net::kQuadrics, {4}), 4);
  EXPECT_LT(r_qs, r_my);
  EXPECT_LT(r_my, r_ib);
}

// --- Fig. 13: memory usage ---------------------------------------------------

TEST(Calibration, MemoryUsage) {
  const auto ib = microbench::memory_usage(Net::kInfiniBand, 8);
  // Linear growth with connections.
  for (std::size_t i = 1; i < ib.size(); ++i) {
    EXPECT_GT(ib[i].value, ib[i - 1].value);
  }
  // Myrinet and Quadrics are flat.
  for (Net net : {Net::kMyrinet, Net::kQuadrics}) {
    const auto mem = microbench::memory_usage(net, 8);
    EXPECT_DOUBLE_EQ(mem.front().value, mem.back().value) << net_name(net);
    EXPECT_LT(mem.back().value, 15.0) << net_name(net);
  }
}

}  // namespace
