// Fat-tree topology: correctness and contention behaviour.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "model/topology.hpp"

namespace {

using namespace mns;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using mpi::View;
using sim::Task;
using sim::Time;

ClusterConfig fat_tree_cfg(std::size_t nodes, std::size_t radix) {
  return {.nodes = nodes,
          .net = Net::kInfiniBand,
          .variant = {.fat_tree_radix = radix}};
}

TEST(FatTree, TrafficStillDeliversEverywhere) {
  Cluster c(fat_tree_cfg(16, 4));
  std::vector<int> got(16, -1);
  c.run([&got](Comm& comm) -> Task<> {
    // All-to-one + ring: crosses leaves in both directions.
    const int to = (comm.rank() + 5) % comm.size();
    const int from = (comm.rank() - 5 + comm.size()) % comm.size();
    int mine = comm.rank() * 3;
    int theirs = -1;
    co_await comm.sendrecv(View::in(&mine, 4), to, 0,
                           View::out(&theirs, 4), from, 0);
    got[static_cast<std::size_t>(comm.rank())] = theirs;
  });
  for (int r = 0; r < 16; ++r) EXPECT_EQ(got[r], ((r - 5 + 16) % 16) * 3);
}

TEST(FatTree, SameLeafAvoidsSpine) {
  // Latency within a leaf must be lower than across leaves (one extra
  // uplink + spine hop).
  Cluster c(fat_tree_cfg(8, 4));
  double same_us = 0, cross_us = 0;
  c.run([&](Comm& comm) -> Task<> {
    auto pingpong = [&](int peer, double& out) -> Task<> {
      const View buf = View::synth(0x100 + comm.rank(), 64);
      const double t0 = comm.wtime();
      for (int i = 0; i < 20; ++i) {
        if (comm.rank() == 0) {
          co_await comm.send(buf, peer, 0);
          co_await comm.recv(buf, peer, 0);
        } else if (comm.rank() == peer) {
          co_await comm.recv(buf, 0, 0);
          co_await comm.send(buf, 0, 0);
        }
      }
      if (comm.rank() == 0) out = (comm.wtime() - t0) / 40 * 1e6;
      co_await comm.barrier();
    };
    co_await pingpong(1, same_us);   // ranks 0,1 share leaf 0
    co_await pingpong(5, cross_us);  // rank 5 on leaf 1
  });
  EXPECT_GT(cross_us, same_us + 0.1);
}

TEST(FatTree, UplinkContentionUnderIncast) {
  // Four senders on one leaf blasting a node on another leaf share one
  // uplink: aggregate throughput must cap near the single link rate,
  // where the flat crossbar would only bottleneck at the receiver.
  auto incast_secs = [](std::size_t radix) {
    Cluster c(fat_tree_cfg(8, radix));
    double secs = 0;
    c.run([&secs](Comm& comm) -> Task<> {
      const std::uint64_t bytes = 4 << 20;
      co_await comm.barrier();
      const double t0 = comm.wtime();
      if (comm.rank() < 4) {  // leaf 0 senders
        co_await comm.send(View::synth(0x100 + comm.rank(), bytes), 7, 0);
      } else if (comm.rank() == 7) {
        for (int i = 0; i < 4; ++i) {
          co_await comm.recv(View::synth(0x900 + i * 0x100, bytes),
                             mpi::kAnySource, 0);
        }
        secs = comm.wtime() - t0;
      }
      co_return;
    });
    return secs;
  };
  const double tree = incast_secs(4);
  const double xbar = incast_secs(0);
  // Both are receiver-bound here (one destination), so the tree should be
  // close to, and never faster than, the crossbar.
  EXPECT_GE(tree, xbar * 0.98);
}

TEST(FatTree, AllToAllSlowerThanCrossbar) {
  // Cross-leaf alltoall oversubscribes the uplinks: the fat tree must be
  // measurably slower than the flat crossbar at the same node count.
  auto alltoall_us = [](std::size_t radix) {
    Cluster c(fat_tree_cfg(16, radix));
    double us = 0;
    c.run([&us](Comm& comm) -> Task<> {
      co_await comm.barrier();
      const double t0 = comm.wtime();
      for (int i = 0; i < 5; ++i) {
        co_await comm.alltoall(View::synth(0x1000, 16 * (64 << 10)),
                               View::synth(0x900000, 16 * (64 << 10)),
                               64 << 10);
      }
      co_await comm.barrier();
      if (comm.rank() == 0) us = (comm.wtime() - t0) / 5 * 1e6;
    });
    return us;
  };
  const double xbar = alltoall_us(0);
  const double tree = alltoall_us(4);
  EXPECT_GT(tree, xbar * 1.3);
}

TEST(FatTree, ModelUnitRouting) {
  sim::Engine eng;
  model::SwitchConfig cfg{8, 1e9, Time::ns(100), 0};
  model::FatTree ft(eng, cfg, 8, 4);
  EXPECT_STREQ(ft.name(), "fat-tree");
  Time same, cross;
  eng.spawn([](sim::Engine& e, model::FatTree& ft, Time& same,
               Time& cross) -> Task<> {
    co_await ft.route(0, 1, 1000);  // same leaf: leaf hop only
    same = e.now();
    co_await ft.route(0, 5, 1000);  // cross leaf: up + spine + leaf
    cross = e.now() - same;
  }(eng, ft, same, cross));
  eng.run();
  EXPECT_EQ(same, Time::ns(1100));           // 1 us serialize + 100 ns
  EXPECT_EQ(cross, Time::ns(1100) * 3);      // three pipelined hops... not
  // quite: hops are sequential per packet: 3 x (1 us + 100 ns).
}

}  // namespace
