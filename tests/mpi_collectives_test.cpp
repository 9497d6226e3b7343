// Collective semantics and shapes across the three devices.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cluster/cluster.hpp"

namespace {

using namespace mns;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using mpi::Dtype;
using mpi::ROp;
using mpi::View;
using sim::Task;
using sim::Time;

class CollAllNets : public ::testing::TestWithParam<Net> {};

INSTANTIATE_TEST_SUITE_P(AllNets, CollAllNets,
                         ::testing::Values(Net::kInfiniBand, Net::kMyrinet,
                                           Net::kQuadrics),
                         [](const auto& info) {
                           switch (info.param) {
                             case Net::kInfiniBand: return "IBA";
                             case Net::kMyrinet: return "Myri";
                             case Net::kQuadrics: return "QSN";
                           }
                           return "?";
                         });

TEST_P(CollAllNets, BarrierAlignsRanks) {
  ClusterConfig cfg{.nodes = 8, .net = GetParam()};
  Cluster c(cfg);
  std::vector<double> after(8, 0);
  c.run([&after](Comm& comm) -> Task<> {
    // Stagger arrivals; everyone must leave at/after the last arrival.
    co_await comm.compute(comm.rank() * 10e-6);
    co_await comm.barrier();
    after[static_cast<std::size_t>(comm.rank())] = comm.wtime();
  });
  const double last_arrival = 70e-6;
  for (double t : after) EXPECT_GE(t, last_arrival);
  // Everyone leaves within a few tens of microseconds of each other.
  const auto [lo, hi] = std::minmax_element(after.begin(), after.end());
  EXPECT_LT(*hi - *lo, 60e-6);
}

TEST_P(CollAllNets, BcastDeliversData) {
  ClusterConfig cfg{.nodes = 8, .net = GetParam()};
  Cluster c(cfg);
  std::vector<std::vector<int>> got(8, std::vector<int>(64, -1));
  c.run([&got](Comm& comm) -> Task<> {
    auto& mine = got[static_cast<std::size_t>(comm.rank())];
    if (comm.rank() == 2) {
      std::iota(mine.begin(), mine.end(), 500);
    }
    co_await comm.bcast(View::out(mine.data(), mine.size() * 4), 2);
  });
  for (int r = 0; r < 8; ++r) {
    for (int i = 0; i < 64; ++i) EXPECT_EQ(got[r][i], 500 + i) << r;
  }
}

TEST_P(CollAllNets, AllreduceSums) {
  ClusterConfig cfg{.nodes = 8, .net = GetParam()};
  Cluster c(cfg);
  std::vector<std::vector<double>> bufs(8, std::vector<double>(16));
  c.run([&bufs](Comm& comm) -> Task<> {
    auto& b = bufs[static_cast<std::size_t>(comm.rank())];
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = comm.rank() + static_cast<double>(i);
    }
    co_await comm.allreduce(View::out(b.data(), b.size() * 8), b.size(),
                            Dtype::kDouble, ROp::kSum);
  });
  // sum over ranks of (r + i) = 28 + 8i
  for (int r = 0; r < 8; ++r) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_DOUBLE_EQ(bufs[r][i], 28.0 + 8.0 * static_cast<double>(i)) << r;
    }
  }
}

TEST_P(CollAllNets, AllreduceMaxMin) {
  ClusterConfig cfg{.nodes = 4, .net = GetParam()};
  Cluster c(cfg);
  std::vector<std::int64_t> maxes(4), mins(4);
  c.run([&](Comm& comm) -> Task<> {
    std::int64_t v = 10 * (comm.rank() + 1);
    co_await comm.allreduce(View::out(&v, 8), 1, Dtype::kInt64, ROp::kMax);
    maxes[static_cast<std::size_t>(comm.rank())] = v;
    std::int64_t w = 10 * (comm.rank() + 1);
    co_await comm.allreduce(View::out(&w, 8), 1, Dtype::kInt64, ROp::kMin);
    mins[static_cast<std::size_t>(comm.rank())] = w;
  });
  for (auto v : maxes) EXPECT_EQ(v, 40);
  for (auto v : mins) EXPECT_EQ(v, 10);
}

TEST_P(CollAllNets, ReduceToRoot) {
  ClusterConfig cfg{.nodes = 8, .net = GetParam()};
  Cluster c(cfg);
  std::int32_t at_root = -1;
  c.run([&at_root](Comm& comm) -> Task<> {
    std::int32_t v = 1 << comm.rank();
    co_await comm.reduce(View::out(&v, 4), 1, Dtype::kInt32, ROp::kSum, 3);
    if (comm.rank() == 3) at_root = v;
  });
  EXPECT_EQ(at_root, 255);
}

TEST_P(CollAllNets, AlltoallPermutesBlocks) {
  ClusterConfig cfg{.nodes = 4, .net = GetParam()};
  Cluster c(cfg);
  std::vector<std::vector<std::int32_t>> got(4, std::vector<std::int32_t>(4));
  c.run([&got](Comm& comm) -> Task<> {
    const int p = comm.size();
    std::vector<std::int32_t> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) send[d] = 100 * comm.rank() + d;
    auto& recv = got[static_cast<std::size_t>(comm.rank())];
    co_await comm.alltoall(View::in(send.data(), send.size() * 4),
                           View::out(recv.data(), recv.size() * 4), 4);
  });
  for (int r = 0; r < 4; ++r) {
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(got[r][s], 100 * s + r) << "rank " << r << " from " << s;
    }
  }
}

TEST_P(CollAllNets, CollectivesWorkWithSyntheticViews) {
  ClusterConfig cfg{.nodes = 8, .net = GetParam()};
  Cluster c(cfg);
  c.run([](Comm& comm) -> Task<> {
    co_await comm.barrier();
    co_await comm.bcast(View::synth(0x100, 4096), 0);
    co_await comm.allreduce(View::synth(0x200, 64), 8, Dtype::kDouble,
                            ROp::kSum);
    co_await comm.alltoall(View::synth(0x300, 8 * 1024),
                           View::synth(0x400, 8 * 1024), 1024);
  });
}

TEST_P(CollAllNets, OddRankCountWorks) {
  // Non-power-of-two process counts exercise the tree-edge cases.
  ClusterConfig cfg{.nodes = 5, .net = GetParam()};
  Cluster c(cfg);
  std::vector<double> sums(5, 0);
  c.run([&sums](Comm& comm) -> Task<> {
    co_await comm.barrier();
    double v = comm.rank() + 1.0;
    co_await comm.allreduce(View::out(&v, 8), 1, Dtype::kDouble, ROp::kSum);
    sums[static_cast<std::size_t>(comm.rank())] = v;
    co_await comm.barrier();
  });
  for (double s : sums) EXPECT_DOUBLE_EQ(s, 15.0);
}

TEST(CollectiveLatency, QuadricsAllreduceBeatsIB) {
  // Paper Fig. 12: small-message Allreduce is Quadrics' strength (hardware
  // broadcast), InfiniBand the slowest of the three.
  auto time_allreduce = [](Net net) {
    ClusterConfig cfg{.nodes = 8, .net = net};
    Cluster c(cfg);
    double us = 0;
    c.run([&us](Comm& comm) -> Task<> {
      co_await comm.barrier();
      const int iters = 50;
      double v = 1.0;
      const double t0 = comm.wtime();
      for (int i = 0; i < iters; ++i) {
        co_await comm.allreduce(View::out(&v, 8), 1, Dtype::kDouble,
                                ROp::kSum);
      }
      if (comm.rank() == 0) us = (comm.wtime() - t0) / iters * 1e6;
    });
    return us;
  };
  const double ib = time_allreduce(Net::kInfiniBand);
  const double qsn = time_allreduce(Net::kQuadrics);
  EXPECT_LT(qsn, ib);
}

TEST(CollectiveLatency, IBAlltoallBeatsQuadrics) {
  // Paper Fig. 11: Alltoall is host-overhead-bound; Quadrics' expensive
  // descriptor posting makes it worst, InfiniBand best.
  auto time_alltoall = [](Net net) {
    ClusterConfig cfg{.nodes = 8, .net = net};
    Cluster c(cfg);
    double us = 0;
    c.run([&us](Comm& comm) -> Task<> {
      co_await comm.barrier();
      const int iters = 50;
      const double t0 = comm.wtime();
      for (int i = 0; i < iters; ++i) {
        co_await comm.alltoall(View::synth(0x1000, 8 * 16),
                               View::synth(0x9000, 8 * 16), 16);
      }
      if (comm.rank() == 0) us = (comm.wtime() - t0) / iters * 1e6;
    });
    return us;
  };
  const double ib = time_alltoall(Net::kInfiniBand);
  const double qsn = time_alltoall(Net::kQuadrics);
  EXPECT_LT(ib, qsn);
}

}  // namespace
